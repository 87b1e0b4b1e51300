//! `atgnn-lint`: the workspace's source-hygiene lint engine.
//!
//! Replaces the grep/awk lint sections `ci.sh` used to carry with a real
//! scanner that understands enough Rust to avoid their failure modes:
//!
//! * string literals and comments are stripped before pattern matching,
//!   so a comment *mentioning* `.unwrap()` no longer needs shell-quoting
//!   contortions to stay out of its own lint;
//! * `#[cfg(test)]` modules are skipped by brace tracking. The awk
//!   predecessor (`awk '/#\[cfg\(test\)\]/{exit}'`) stopped scanning at
//!   the **first** test module, silently exempting every line after it —
//!   including non-test code. The scanner resumes after the module's
//!   closing brace;
//! * findings can be suppressed per line with an explicit
//!   `// atgnn-lint: allow(rule-name)` annotation (same line or the line
//!   directly above), so exemptions live next to the code they excuse
//!   instead of in shell case statements.
//!
//! Findings are reported through the analyzer's own typed
//! [`Diagnostic`] stream, anchored by [`Span`]s (file + line) instead of
//! DAG node ids. Five of the rules and their scopes mirror the retired
//! shell lints; `dense-raw-index` guards the padded-layout invariant
//! (kernels address `Dense` storage only through stride-aware
//! accessors). See [`rules`] for the rationale of each.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use atgnn::analyze::{Diagnostic, Rule, Severity, Span};

/// One source-scanning rule: a pattern, a file scope, and the policy
/// text shown when it fires.
pub struct SourceRule {
    /// The analyzer rule this lint reports as.
    pub rule: Rule,
    /// Whether a workspace-relative path (forward slashes) is in scope.
    pub in_scope: fn(&str) -> bool,
    /// Whether a stripped source line violates the rule.
    pub matches: fn(&str) -> bool,
    /// Skip `#[cfg(test)]` modules (policy rules exempting tests).
    pub skip_tests: bool,
    /// Match against the strings-kept stripped line (comments removed,
    /// string literals preserved). Needed by rules whose forbidden
    /// pattern lives *inside* a literal — e.g. `env::var("ATGNN_…")`
    /// knob reads, where the knob name is the string argument.
    pub keep_strings: bool,
    /// Why the pattern is forbidden, appended to each finding.
    pub why: &'static str,
}

fn in_kernel_crates(path: &str) -> bool {
    path.starts_with("crates/sparse/src/") || path.starts_with("crates/tensor/src/")
}

/// Files that may legitimately read plan-knob env vars: the knob
/// registries themselves (`micro.rs`, `rt.rs`) and the plan layer in
/// `core` (`plan.rs`). Kernels, attention layers and the model must go
/// through `ExecPlan`.
fn in_plan_knob_scope(path: &str) -> bool {
    let kernel =
        in_kernel_crates(path) && !path.ends_with("/micro.rs") && !path.ends_with("/rt.rs");
    kernel
        || is_attention_layer_file(path)
        || path.starts_with("crates/core/src/layers/")
        || path == "crates/core/src/model.rs"
        || path == "crates/core/src/layer.rs"
}

fn is_attention_layer_file(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/layers/va.rs"
            | "crates/core/src/layers/agnn.rs"
            | "crates/core/src/layers/gat.rs"
            | "crates/dist/src/layers.rs"
    )
}

// The patterns are assembled from concatenated pieces so this file's own
// literals cannot trip the rules when the scanner walks crates/lint.
fn unwrap_pat() -> String {
    format!(".unwr{}", "ap()")
}
fn permute_pat() -> String {
    format!(".perm{}", "ute(")
}
fn recv_pat() -> String {
    format!("recv_unbo{}", "unded(")
}
fn bare_recv_pat() -> String {
    format!(".re{}", "cv()")
}
fn bare_wait_pat() -> String {
    format!(".wa{}", "it(")
}
fn join_pat() -> String {
    format!(".jo{}", "in()")
}
fn softmax_pat() -> String {
    format!("masked::row_soft{}", "max(")
}
fn slice_index_pat() -> String {
    format!(".as_sl{}", "ice()[")
}
fn slice_index_mut_pat() -> String {
    format!(".as_mut_sl{}", "ice()[")
}
fn range_mut_pat() -> String {
    format!(".range_{}", "mut(")
}
/// The plan-owned knob env vars (the six `ExecPlan` axes). Kernels and
/// layers must receive these through `ExecPlan::apply_kernel_knobs`,
/// never read them directly.
fn plan_knob_pats() -> Vec<String> {
    [
        "EXEC",
        "REORDER",
        "LAYOUT",
        "MICROKERNEL",
        "SIMD",
        "PRECISION",
    ]
    .iter()
    .map(|axis| format!("ATGNN{}{axis}", '_'))
    .collect()
}
fn hash_container_pats() -> [String; 2] {
    [format!("Hash{}", "Map"), format!("Hash{}", "Set")]
}
/// The half-precision storage types and the float bit-access methods.
/// Assembled from pieces like every other pattern so this file's own
/// literals stay inert.
fn half_type_pats() -> [String; 2] {
    [format!("Bf{}", "16"), format!("F{}", "16")]
}
fn float_bits_pats() -> [String; 2] {
    [format!("to_b{}", "its("), format!("from_b{}", "its(")]
}

/// The workspace's source-hygiene rules.
pub fn rules() -> Vec<SourceRule> {
    vec![
        SourceRule {
            rule: Rule::UnwrapInKernels,
            in_scope: in_kernel_crates,
            matches: |line| line.contains(unwrap_pat().as_str()),
            skip_tests: true,
            keep_strings: false,
            why: "kernel code must propagate or assert with context \
                  (Result or expect()), not unwrap",
        },
        SourceRule {
            rule: Rule::RawThreads,
            in_scope: |p| in_kernel_crates(p) && !p.ends_with("/rt.rs"),
            matches: |line| line.contains("thread::spawn") || line.contains("thread::scope"),
            skip_tests: false,
            keep_strings: false,
            why: "kernel parallelism goes through the persistent \
                  atgnn_tensor::rt pool so thread counts, nnz-balanced \
                  scheduling and determinism stay centralized",
        },
        SourceRule {
            rule: Rule::StagedBypass,
            in_scope: is_attention_layer_file,
            matches: |line| line.contains("fused::") || line.contains(softmax_pat().as_str()),
            skip_tests: false,
            keep_strings: false,
            why: "layer code must dispatch attention through \
                  atgnn_sparse::attention + ExecPlan; direct staged-kernel \
                  calls silently lose the one-pass path",
        },
        SourceRule {
            rule: Rule::PermuteLayering,
            in_scope: |p| {
                !matches!(
                    p,
                    "crates/sparse/src/csr.rs"
                        | "crates/core/src/plan.rs"
                        | "crates/dist/src/context.rs"
                )
            },
            matches: |line| line.contains(permute_pat().as_str()),
            skip_tests: true,
            keep_strings: false,
            why: "graph reordering is a plan-time decision; kernels and \
                  layers stay permutation-oblivious (route through \
                  ExecPlan::reorder_graph)",
        },
        SourceRule {
            rule: Rule::DenseRawIndex,
            in_scope: |p| in_kernel_crates(p) && !p.ends_with("/dense.rs"),
            matches: |line| {
                line.contains(slice_index_pat().as_str())
                    || line.contains(slice_index_mut_pat().as_str())
                    || (line.contains(range_mut_pat().as_str())
                        && line.contains('*')
                        && !line.contains("stride"))
            },
            skip_tests: true,
            keep_strings: false,
            why: "kernel code must address Dense storage through the \
                  stride-aware accessors (row/row_padded/stride); a raw \
                  `row * cols` offset is silently wrong once the padded \
                  layout makes stride != cols",
        },
        SourceRule {
            rule: Rule::UnboundedRecv,
            in_scope: |p| p.starts_with("crates/dist/src/") || p.starts_with("crates/serve/src/"),
            matches: |line| line.contains(recv_pat().as_str()),
            skip_tests: false,
            keep_strings: false,
            why: "distributed and serving code must use the \
                  deadline-bounded, self-healing Comm::recv; the legacy \
                  unbounded recv hangs forever on a lost frame",
        },
        SourceRule {
            rule: Rule::UnfencedWait,
            in_scope: |p| p.starts_with("crates/serve/src/"),
            matches: |line| {
                line.contains(bare_recv_pat().as_str())
                    || line.contains(bare_wait_pat().as_str())
                    || line.contains(join_pat().as_str())
            },
            skip_tests: false,
            keep_strings: false,
            why: "serve-path code must never block without a deadline: \
                  use recv_timeout/wait_timeout, and retire worker \
                  threads by polling is_finished() under a bound instead \
                  of join()",
        },
        SourceRule {
            rule: Rule::RawHalfBits,
            in_scope: |p| in_kernel_crates(p) && !p.ends_with("/convert.rs"),
            matches: |line| {
                half_type_pats().iter().any(|t| line.contains(t.as_str()))
                    && float_bits_pats().iter().any(|b| line.contains(b.as_str()))
            },
            skip_tests: true,
            keep_strings: false,
            why: "f32\u{2194}bf16/f16 conversion is defined once, in \
                  atgnn_tensor::convert (the Store trait); ad-hoc \
                  to_bits/from_bits twiddling on the half types lets two \
                  kernels disagree about rounding",
        },
        SourceRule {
            rule: Rule::PlanKnobEnv,
            in_scope: in_plan_knob_scope,
            matches: |line| plan_knob_pats().iter().any(|p| line.contains(p.as_str())),
            skip_tests: true,
            keep_strings: true,
            why: "plan knobs reach kernels only through \
                  ExecPlan::apply_kernel_knobs; a direct env read \
                  bypasses the plan a model was given",
        },
        SourceRule {
            rule: Rule::HashInKernels,
            in_scope: |p| p.starts_with("crates/sparse/src/"),
            matches: |line| {
                hash_container_pats()
                    .iter()
                    .any(|c| line.contains(c.as_str()))
            },
            skip_tests: true,
            keep_strings: false,
            why: "sparse kernels index by node id; a hash container pays \
                  hashing and allocation per entry on the hot path, and \
                  RandomState iteration order is nondeterminism the plan \
                  analysis cannot see (use a dense or sorted structure)",
        },
    ]
}

/// Per-line scanner state for one file.
struct Scanner {
    /// Brace depth across the whole file.
    depth: i64,
    /// Inside a `/* ... */` comment.
    in_block_comment: bool,
    /// Saw `#[cfg(test)]`, waiting for the item it annotates.
    pending_test_attr: bool,
    /// Skipping a test module until depth returns to this value.
    skip_above: Option<i64>,
}

/// One processed source line.
struct ScannedLine {
    /// The line with comments and string/char literals blanked out.
    stripped: String,
    /// The line with comments blanked but string/char literals kept
    /// (for `keep_strings` rules whose pattern sits inside a literal).
    kept: String,
    /// Rules allowed on this line via `atgnn-lint: allow(...)`.
    allows: Vec<Rule>,
    /// Whether the line is inside a `#[cfg(test)]` module.
    in_test: bool,
}

impl Scanner {
    fn new() -> Self {
        Self {
            depth: 0,
            in_block_comment: false,
            pending_test_attr: false,
            skip_above: None,
        }
    }

    /// Strips comments and literals from one raw line, updating brace
    /// depth and test-module tracking.
    fn line(&mut self, raw: &str) -> ScannedLine {
        let allows = parse_allows(raw);
        let entry_depth = self.depth;
        let in_test_at_entry = self.skip_above.is_some();
        let mut out = String::with_capacity(raw.len());
        let mut kept = String::with_capacity(raw.len());
        let mut chars = raw.chars().peekable();
        let mut in_string = false;
        let mut in_char = false;
        while let Some(c) = chars.next() {
            if self.in_block_comment {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    self.in_block_comment = false;
                }
                continue;
            }
            if in_string {
                kept.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = chars.next() {
                            kept.push(esc);
                        }
                    }
                    '"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            if in_char {
                kept.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = chars.next() {
                            kept.push(esc);
                        }
                    }
                    '\'' => in_char = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '/' if chars.peek() == Some(&'/') => break, // line comment
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    self.in_block_comment = true;
                }
                '"' => {
                    in_string = true;
                    out.push(' ');
                    kept.push('"');
                }
                // A lifetime/label tick is followed by an alphanumeric
                // char and no closing quote soon; treat `'x'`-style char
                // literals only when the next-next char closes them.
                '\'' => {
                    let mut look = chars.clone();
                    let first = look.next();
                    let is_char_lit = match first {
                        Some('\\') => true,
                        Some(_) => look.next() == Some('\''),
                        None => false,
                    };
                    if is_char_lit {
                        in_char = true;
                    }
                    out.push(' ');
                    kept.push('\'');
                }
                '{' => {
                    self.depth += 1;
                    out.push(c);
                    kept.push(c);
                }
                '}' => {
                    self.depth -= 1;
                    out.push(c);
                    kept.push(c);
                    if let Some(limit) = self.skip_above {
                        if self.depth <= limit {
                            self.skip_above = None;
                        }
                    }
                }
                c => {
                    out.push(c);
                    kept.push(c);
                }
            }
        }
        // Strings spanning lines (multiline literals) stay stripped.
        // (Raw strings with embedded quotes are out of scope: the
        // workspace style keeps lint-sensitive patterns out of them.)
        let trimmed = out.trim();
        if trimmed.contains("#[cfg(test)]") {
            self.pending_test_attr = true;
        } else if self.pending_test_attr && !trimmed.is_empty() {
            if trimmed.starts_with("#[") {
                // Another attribute between cfg(test) and the item.
            } else {
                if trimmed.starts_with("mod ") && raw.contains('{') {
                    // Skip until the module's closing brace returns the
                    // depth to what it was before this line.
                    self.skip_above = Some(entry_depth);
                }
                self.pending_test_attr = false;
            }
        }
        ScannedLine {
            stripped: out,
            kept,
            allows,
            in_test: in_test_at_entry || self.skip_above.is_some(),
        }
    }
}

/// Parses `atgnn-lint: allow(rule-a, rule-b)` annotations out of a raw
/// line's comment.
fn parse_allows(raw: &str) -> Vec<Rule> {
    let Some(idx) = raw.find("atgnn-lint:") else {
        return Vec::new();
    };
    let rest = &raw[idx + "atgnn-lint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(')') else {
        return Vec::new();
    };
    rest[open + "allow(".len()..open + close]
        .split(',')
        .filter_map(|name| Rule::from_name(name.trim()))
        .collect()
}

/// Lints one file's contents; `rel` is its workspace-relative path.
pub fn scan_source(rel: &str, contents: &str, rules: &[SourceRule]) -> Vec<Diagnostic> {
    let active: Vec<&SourceRule> = rules.iter().filter(|r| (r.in_scope)(rel)).collect();
    if active.is_empty() {
        return Vec::new();
    }
    let mut scanner = Scanner::new();
    let mut findings = Vec::new();
    let mut prev_allows: Vec<Rule> = Vec::new();
    for (i, raw) in contents.lines().enumerate() {
        let line = scanner.line(raw);
        for rule in &active {
            if line.in_test && rule.skip_tests {
                continue;
            }
            let text = if rule.keep_strings {
                &line.kept
            } else {
                &line.stripped
            };
            if !(rule.matches)(text) {
                continue;
            }
            if line.allows.contains(&rule.rule) || prev_allows.contains(&rule.rule) {
                continue;
            }
            findings.push(Diagnostic::error_at(
                rule.rule,
                Span {
                    file: rel.to_string(),
                    line: i + 1,
                },
                format!("forbidden pattern: {}", rule.why),
            ));
        }
        prev_allows = line.allows;
    }
    findings
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**.rs` file under the workspace root.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let rules = rules();
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let contents = fs::read_to_string(&file)?;
        findings.extend(scan_source(&rel, &contents, &rules));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<Diagnostic> {
        scan_source(rel, src, &rules())
    }

    #[test]
    fn unwrap_in_kernel_code_is_flagged() {
        let src = "fn f() {\n    let x = y.unwrap();\n}\n";
        let found = scan("crates/sparse/src/spmm.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UnwrapInKernels);
        assert_eq!(
            found[0].span,
            Some(Span {
                file: "crates/sparse/src/spmm.rs".into(),
                line: 2
            })
        );
        // Out-of-scope crates are untouched.
        assert!(scan("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        assert!(scan("crates/sparse/src/spmm.rs", src).is_empty());
    }

    #[test]
    fn scanning_resumes_after_the_test_module() {
        // The retired awk strip stopped at the FIRST test module and
        // never saw this trailing violation.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n\
                   fn after() { y.unwrap(); }\n";
        let found = scan("crates/tensor/src/micro.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].span.as_ref().map(|s| s.line), Some(5));
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "// calls .unwrap() internally\n\
                   fn f() { let s = \".unwrap()\"; }\n\
                   /* .unwrap() in a block comment */\n";
        assert!(scan("crates/sparse/src/csr.rs", src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_same_and_next_line() {
        let same = "fn f() { y.unwrap(); } // atgnn-lint: allow(unwrap-in-kernels)\n";
        assert!(scan("crates/sparse/src/spmm.rs", same).is_empty());
        let above = "// atgnn-lint: allow(unwrap-in-kernels)\nfn f() { y.unwrap(); }\n";
        assert!(scan("crates/sparse/src/spmm.rs", above).is_empty());
        let wrong = "// atgnn-lint: allow(raw-threads)\nfn f() { y.unwrap(); }\n";
        assert_eq!(scan("crates/sparse/src/spmm.rs", wrong).len(), 1);
    }

    #[test]
    fn raw_threads_flagged_even_in_tests_but_not_in_rt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert_eq!(scan("crates/tensor/src/gemm.rs", src).len(), 1);
        assert!(scan("crates/tensor/src/rt.rs", src).is_empty());
    }

    #[test]
    fn staged_bypass_only_in_layer_files() {
        let src = "fn f() { fused::attention_forward(); }\n";
        assert_eq!(scan("crates/core/src/layers/gat.rs", src).len(), 1);
        assert!(scan("crates/core/src/plan.rs", src).is_empty());
    }

    #[test]
    fn permute_exempts_the_plan_layer() {
        let src = format!("fn f() {{ a{}b); }}\n", permute_pat());
        assert_eq!(scan("crates/core/src/layers/gat.rs", &src).len(), 1);
        assert!(scan("crates/core/src/plan.rs", &src).is_empty());
        assert!(scan("crates/sparse/src/csr.rs", &src).is_empty());
        assert!(scan("crates/dist/src/context.rs", &src).is_empty());
    }

    #[test]
    fn unbounded_recv_only_in_dist_and_serve() {
        let src = format!("fn f() {{ comm.{}0); }}\n", recv_pat());
        assert_eq!(scan("crates/dist/src/engine.rs", &src).len(), 1);
        assert_eq!(scan("crates/serve/src/server.rs", &src).len(), 1);
        assert!(scan("crates/net/src/comm.rs", &src).is_empty());
    }

    #[test]
    fn unfenced_wait_flags_serve_blocking_calls() {
        for call in [
            format!("fn f() {{ let m = rx{}; }}\n", bare_recv_pat()),
            format!("fn f() {{ let g = cv{}g); }}\n", bare_wait_pat()),
            format!("fn f() {{ let _ = handle{}; }}\n", join_pat()),
        ] {
            let found = scan("crates/serve/src/server.rs", &call);
            assert_eq!(found.len(), 1, "expected a finding for {call:?}");
            assert_eq!(found[0].rule, Rule::UnfencedWait);
            // The rule is scoped to the serve crate only.
            assert!(scan("crates/core/src/model.rs", &call).is_empty());
        }
    }

    #[test]
    fn unfenced_wait_permits_deadline_bounded_calls() {
        let src = "fn f() { let (g, _) = cv.wait_timeout(g, d); \
                   let m = rx.recv_timeout(d); \
                   if handle.is_finished() {} }\n";
        assert!(scan("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn raw_dense_indexing_is_flagged_outside_dense_rs() {
        let direct = format!("fn f() {{ let v = m{}r * k + c]; }}\n", slice_index_pat());
        assert_eq!(
            scan("crates/sparse/src/spmm.rs", &direct)[0].rule,
            Rule::DenseRawIndex
        );
        let via_mut = format!("fn f() {{ m{}r * k + c] = v; }}\n", slice_index_mut_pat());
        assert_eq!(scan("crates/tensor/src/ops.rs", &via_mut).len(), 1);
        // dense.rs itself owns the storage and is exempt.
        assert!(scan("crates/tensor/src/dense.rs", &direct).is_empty());
        // Out-of-scope crates are untouched.
        assert!(scan("crates/core/src/model.rs", &direct).is_empty());
    }

    #[test]
    fn range_mut_requires_a_stride_derived_offset() {
        // A `lo * cols` offset assumes tight rows: flagged.
        let raw = format!(
            "let p = unsafe {{ s{}lo * k, hi * k) }};\n",
            range_mut_pat()
        );
        assert_eq!(scan("crates/sparse/src/spmm.rs", &raw).len(), 1);
        // The same shape through a stride variable documents awareness.
        let ok = format!(
            "let p = unsafe {{ s{}lo * out_stride, hi * out_stride) }};\n",
            range_mut_pat()
        );
        assert!(scan("crates/sparse/src/spmm.rs", &ok).is_empty());
        // Offsets that are not products (indptr ranges) are fine.
        let indptr = format!(
            "let p = unsafe {{ s{}ip[lo], ip[hi]) }};\n",
            range_mut_pat()
        );
        assert!(scan("crates/sparse/src/spmm.rs", &indptr).is_empty());
    }

    #[test]
    fn plan_knob_env_reads_stay_out_of_kernels() {
        // The knob name sits inside a string literal, which only the
        // strings-kept scan sees.
        let src = format!(
            "fn f() {{ let t = std::env::var(\"ATGNN{}{}\").ok(); }}\n",
            '_', "LAYOUT"
        );
        let found = scan("crates/sparse/src/attention.rs", &src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, Rule::PlanKnobEnv);
        // Layers and the model are in scope too.
        assert_eq!(scan("crates/core/src/layers/gat.rs", &src).len(), 1);
        assert_eq!(scan("crates/core/src/model.rs", &src).len(), 1);
        // The knob registry and the plan layer own the reads.
        assert!(scan("crates/tensor/src/micro.rs", &src).is_empty());
        assert!(scan("crates/core/src/plan.rs", &src).is_empty());
        // A knob name in a comment does not fire (comments are stripped
        // from the strings-kept text as well).
        let comment = format!("// reads ATGNN{}{} at startup\nfn f() {{}}\n", '_', "SIMD");
        assert!(scan("crates/sparse/src/spmm.rs", &comment).is_empty());
    }

    #[test]
    fn raw_half_bit_twiddling_stays_in_convert() {
        let ty = &half_type_pats()[0];
        let bits = &float_bits_pats()[0];
        let src = format!("fn f(x: {ty}) -> u16 {{ x.{bits}) }}\n");
        let found = scan("crates/tensor/src/micro.rs", &src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, Rule::RawHalfBits);
        assert_eq!(scan("crates/sparse/src/spmm.rs", &src).len(), 1);
        // The convert module owns rounding and is exempt; so is
        // everything outside the kernel crates.
        assert!(scan("crates/tensor/src/convert.rs", &src).is_empty());
        assert!(scan("crates/core/src/plan.rs", &src).is_empty());
        // A half type alone (a format parameter) does not fire...
        let plumbing = format!("fn g(x: {ty}) {{}}\n");
        assert!(scan("crates/tensor/src/micro.rs", &plumbing).is_empty());
        // ...nor does bit access on full-precision floats.
        let f32_bits = format!("fn h(x: f32) -> u32 {{ x.{bits}) }}\n");
        assert!(scan("crates/tensor/src/micro.rs", &f32_bits).is_empty());
    }

    #[test]
    fn hash_containers_stay_out_of_sparse_kernels() {
        let [map, set] = hash_container_pats();
        let src = format!(
            "use std::collections::{map};\nfn f() {{ let s: {set}<u32> = {set}::new(); }}\n"
        );
        let found = scan("crates/sparse/src/sample.rs", &src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|d| d.rule == Rule::HashInKernels));
        // Test modules may keep a hashed oracle.
        let oracle = format!("#[cfg(test)]\nmod tests {{\n    use std::collections::{map};\n}}\n");
        assert!(scan("crates/sparse/src/sample.rs", &oracle).is_empty());
        // Scoped to the sparse crate: the checkpoint reader and the
        // runtime are not sparse kernels.
        assert!(scan("crates/core/src/checkpoint.rs", &src).is_empty());
        assert!(scan("crates/tensor/src/rt.rs", &src).is_empty());
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        // Walk up from the crate dir to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings = scan_workspace(root).expect("scan");
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

//! The persistent tuning database (tier 3 of the autotuner).
//!
//! A versioned JSON file mapping *(graph structure, feature width,
//! thread count, kernel version)* to the resolved [`ExecPlan`], so one
//! process's calibration pays for every later run on the same problem.
//! The location is `ATGNN_TUNE_DB`, else `$HOME/.cache/atgnn/tune.json`,
//! else the repo-local `results/tune.json` ([`default_path`]).
//!
//! Invalidation is structural, not temporal: the key's
//! [`Csr::structure_fingerprint`](atgnn_sparse::Csr::structure_fingerprint)
//! hashes the index arrays, so any permutation or rewiring produces a
//! different key (a permuted graph is a different tuning problem — its
//! gather locality changed); [`KERNEL_VERSION`](crate::tune::KERNEL_VERSION)
//! retires every entry when the kernel generation changes — stale
//! entries are *dropped* at parse time, not rejected, because their plan
//! schema may predate axes that exist now; and the thread
//! count keys separately because a plan tuned at one parallelism is not
//! evidence at another. A corrupt, truncated, or version-mismatched file
//! is reported as a [`DbError`] and treated by the resolver as a miss —
//! never a panic.
//!
//! Serialization is hand-rolled (the workspace is dependency-free): a
//! small recursive-descent JSON reader plus a writer that emits the exact
//! shape the reader accepts. Fingerprints are hex *strings* — a `u64`
//! does not survive a round-trip through JSON's doubles.

use crate::plan::{
    AttentionExec, ExecPlan, Layout, MicroKernel, Precision, ReorderStrategy, SimdMode,
};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Schema version of the on-disk format; bump on incompatible change.
pub const DB_VERSION: u64 = 1;

/// What one tuning entry is keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbKey {
    /// Content hash of the adjacency structure
    /// ([`Csr::structure_fingerprint`](atgnn_sparse::Csr::structure_fingerprint)).
    pub fingerprint: u64,
    /// Feature width the plan was tuned at.
    pub k: usize,
    /// Worker-thread count the plan was tuned at.
    pub threads: usize,
    /// Kernel generation ([`crate::tune::KERNEL_VERSION`]).
    pub kernel_version: u64,
}

/// A plan in stringly, schema-stable form (enum names, not discriminants).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanRecord {
    /// `fused` / `staged`.
    pub exec: String,
    /// `off` / `degree` / `rcm` / `auto`.
    pub reorder: String,
    /// `padded` / `tight`.
    pub layout: String,
    /// `blocked` / `scalar`.
    pub micro: String,
    /// `wide` / `scalar`.
    pub simd: String,
    /// Attention column tile (`0` = auto).
    pub col_tile: usize,
    /// `f32` / `bf16` / `f16` (resolved — never `auto`; the tuner
    /// persists only concrete storage decisions).
    pub precision: String,
}

impl PlanRecord {
    /// Records a plan field-for-field.
    pub fn of(plan: &ExecPlan) -> Self {
        Self {
            exec: match plan.exec() {
                AttentionExec::FusedOnePass => "fused",
                AttentionExec::Staged => "staged",
            }
            .to_string(),
            reorder: plan.reorder().name().to_string(),
            layout: plan.layout().name().to_string(),
            micro: match plan.micro_kernel() {
                MicroKernel::Blocked => "blocked",
                MicroKernel::Scalar => "scalar",
            }
            .to_string(),
            simd: match plan.simd() {
                SimdMode::Wide => "wide",
                SimdMode::Scalar => "scalar",
            }
            .to_string(),
            col_tile: plan.col_tile(),
            precision: plan.precision().name().to_string(),
        }
    }

    /// Rebuilds the fully-pinned plan; `None` if any name is unknown
    /// (a forward-incompatible record — the resolver treats it as a
    /// miss).
    pub fn to_plan(&self) -> Option<ExecPlan> {
        let exec = match self.exec.as_str() {
            "fused" => AttentionExec::FusedOnePass,
            "staged" => AttentionExec::Staged,
            _ => return None,
        };
        let micro = match self.micro.as_str() {
            "blocked" => MicroKernel::Blocked,
            "scalar" => MicroKernel::Scalar,
            _ => return None,
        };
        let simd = match self.simd.as_str() {
            "wide" => SimdMode::Wide,
            "scalar" => SimdMode::Scalar,
            _ => return None,
        };
        Some(
            ExecPlan::fused()
                .with_exec(exec)
                .with_reorder(ReorderStrategy::parse(&self.reorder)?)
                .with_layout(Layout::parse(&self.layout)?)
                .with_micro(micro)
                .with_simd(simd)
                .with_col_tile(self.col_tile)
                .with_precision(Precision::parse(&self.precision)?),
        )
    }
}

/// One persisted tuning decision.
#[derive(Clone, Debug, PartialEq)]
pub struct DbEntry {
    /// What the entry is keyed by.
    pub key: DbKey,
    /// The resolved plan.
    pub plan: PlanRecord,
    /// Which tier produced it: `model` or `measure`.
    pub tier: String,
    /// Best calibration wall time in seconds (`0` for model-tier
    /// entries).
    pub measured_s: f64,
}

/// Why a database file could not be used.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem failure other than not-found.
    Io(io::Error),
    /// The file is not the JSON shape this module writes.
    Parse(String),
    /// The file is a different schema generation.
    VersionMismatch {
        /// The version the file declares.
        found: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "tune-db io: {e}"),
            DbError::Parse(why) => write!(f, "tune-db parse: {why}"),
            DbError::VersionMismatch { found } => {
                write!(f, "tune-db version {found} != supported {DB_VERSION}")
            }
        }
    }
}

/// The in-memory database: a flat entry list (it stays tiny — one entry
/// per distinct graph×width×threads problem).
#[derive(Clone, Debug, Default)]
pub struct TuneDb {
    /// All entries, unique per [`DbKey`].
    pub entries: Vec<DbEntry>,
}

impl TuneDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads from disk. A missing file is an empty database (the
    /// first-run case); anything unreadable or unparseable is an error
    /// the resolver downgrades to a miss.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(DbError::Io(e)),
        };
        Self::parse(&text)
    }

    /// The entry for `key`, if tuned before.
    pub fn get(&self, key: &DbKey) -> Option<&DbEntry> {
        self.entries.iter().find(|e| e.key == *key)
    }

    /// Inserts or replaces the entry for its key.
    pub fn put(&mut self, entry: DbEntry) {
        match self.entries.iter_mut().find(|e| e.key == entry.key) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Writes atomically: temp file in the same directory, then rename —
    /// a concurrent reader sees either the old or the new database,
    /// never a truncation. Parent directories are created as needed.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)
    }

    /// Serializes to the versioned JSON document [`TuneDb::parse`]
    /// accepts.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"version\": {DB_VERSION},\n"));
        s.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"fingerprint\": \"{:#018x}\", \"k\": {}, \"threads\": {}, \
                 \"kernel_version\": {}, \"tier\": \"{}\", \"measured_s\": {:?}, \
                 \"plan\": {{\"exec\": \"{}\", \"reorder\": \"{}\", \"layout\": \"{}\", \
                 \"micro\": \"{}\", \"simd\": \"{}\", \"col_tile\": {}, \
                 \"precision\": \"{}\"}}}}",
                e.key.fingerprint,
                e.key.k,
                e.key.threads,
                e.key.kernel_version,
                e.tier,
                e.measured_s,
                e.plan.exec,
                e.plan.reorder,
                e.plan.layout,
                e.plan.micro,
                e.plan.simd,
                e.plan.col_tile,
                e.plan.precision,
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses a database document, enforcing the schema version.
    pub fn parse(text: &str) -> Result<Self, DbError> {
        let root = json::parse(text).map_err(DbError::Parse)?;
        let version = root
            .get("version")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| DbError::Parse("missing numeric \"version\"".into()))?;
        if version != DB_VERSION {
            return Err(DbError::VersionMismatch { found: version });
        }
        let raw_entries = match root.get("entries") {
            Some(json::Value::Array(items)) => items,
            _ => return Err(DbError::Parse("missing \"entries\" array".into())),
        };
        let mut db = Self::new();
        for item in raw_entries {
            if let Some(entry) = parse_entry(item)? {
                db.put(entry);
            }
        }
        Ok(db)
    }
}

/// Parses one entry. `Ok(None)` is a *stale* entry — its declared
/// `kernel_version` predates [`crate::tune::KERNEL_VERSION`], so its
/// plan may lack axes that exist now (the precision axis arrived in
/// generation 2) or carry ones that no longer do (the `spmm_t` chunk
/// count left in generation 3). Stale entries are dropped silently
/// rather than rejected: an old database stays loadable, it just no
/// longer answers for anything. Entries claiming the *current*
/// generation must parse completely — a malformed current entry is
/// still a [`DbError`].
fn parse_entry(v: &json::Value) -> Result<Option<DbEntry>, DbError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| DbError::Parse(format!("entry missing \"{name}\"")))
    };
    let num = |name: &str| {
        field(name)?
            .as_u64()
            .ok_or_else(|| DbError::Parse(format!("entry field \"{name}\" not a number")))
    };
    let string = |name: &str| {
        field(name)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| DbError::Parse(format!("entry field \"{name}\" not a string")))
    };
    // Generation gate first: a stale entry's plan shape is from a past
    // kernel generation and must not be held to the current schema.
    let kernel_version = num("kernel_version")?;
    if kernel_version < crate::tune::KERNEL_VERSION {
        return Ok(None);
    }
    let fp_text = string("fingerprint")?;
    let fingerprint = u64::from_str_radix(fp_text.trim_start_matches("0x"), 16)
        .map_err(|_| DbError::Parse(format!("bad fingerprint {fp_text:?}")))?;
    let plan_obj = field("plan")?;
    let plan_string = |name: &str| {
        plan_obj
            .get(name)
            .and_then(json::Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| DbError::Parse(format!("plan field \"{name}\" not a string")))
    };
    let plan_num = |name: &str| {
        plan_obj
            .get(name)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| DbError::Parse(format!("plan field \"{name}\" not a number")))
    };
    Ok(Some(DbEntry {
        key: DbKey {
            fingerprint,
            k: num("k")? as usize,
            threads: num("threads")? as usize,
            kernel_version,
        },
        plan: PlanRecord {
            exec: plan_string("exec")?,
            reorder: plan_string("reorder")?,
            layout: plan_string("layout")?,
            micro: plan_string("micro")?,
            simd: plan_string("simd")?,
            col_tile: plan_num("col_tile")? as usize,
            precision: plan_string("precision")?,
        },
        tier: string("tier")?,
        measured_s: field("measured_s")?
            .as_f64()
            .ok_or_else(|| DbError::Parse("\"measured_s\" not a number".into()))?,
    }))
}

/// Where the database lives: `ATGNN_TUNE_DB` wins, then the per-user
/// cache `$HOME/.cache/atgnn/tune.json`, then the repo-local
/// `results/tune.json` for homeless environments (containers, CI).
pub fn default_path() -> PathBuf {
    if let Ok(p) = std::env::var("ATGNN_TUNE_DB") {
        if !p.is_empty() {
            return PathBuf::from(p);
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.is_empty() {
            return Path::new(&home)
                .join(".cache")
                .join("atgnn")
                .join("tune.json");
        }
    }
    PathBuf::from("results/tune.json")
}

/// A minimal recursive-descent JSON reader — just enough for the
/// document this module writes (objects, arrays, strings with the common
/// escapes, numbers, literals).
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true`/`false`.
        Bool(bool),
        /// Any JSON number (doubles — which is why fingerprints are
        /// stored as hex strings).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, insertion-ordered.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as `f64`, if it is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, if it is one exactly.
        pub fn as_u64(&self) -> Option<u64> {
            let n = self.as_f64()?;
            (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
        }
    }

    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b
                        .get(*pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        _ => return Err(format!("unsupported escape \\{}", esc as char)),
                    }
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, col_tile: usize) -> DbEntry {
        DbEntry {
            key: DbKey {
                fingerprint: fp,
                k: 64,
                threads: 1,
                kernel_version: crate::tune::KERNEL_VERSION,
            },
            plan: PlanRecord {
                exec: "fused".into(),
                reorder: "off".into(),
                layout: "tight".into(),
                micro: "blocked".into(),
                simd: "wide".into(),
                col_tile,
                precision: "f32".into(),
            },
            tier: "measure".into(),
            measured_s: 0.0123,
        }
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let mut db = TuneDb::new();
        db.put(entry(0xdead_beef_cafe_f00d, 1));
        db.put(entry(7, 0));
        let back = TuneDb::parse(&db.to_json()).expect("own output must parse");
        assert_eq!(back.entries, db.entries);
        // put replaces on key match.
        let mut db2 = back.clone();
        db2.put(entry(7, 16));
        assert_eq!(db2.entries.len(), 2);
        assert_eq!(db2.get(&entry(7, 0).key).unwrap().plan.col_tile, 16);
    }

    #[test]
    fn plan_record_round_trips_a_pinned_plan() {
        let plan = ExecPlan::fused()
            .with_reorder(ReorderStrategy::Degree)
            .with_layout(Layout::Tight)
            .with_col_tile(8)
            .pin_all();
        let rec = PlanRecord::of(&plan);
        let back = rec.to_plan().expect("record must rebuild");
        assert_eq!(back, plan);
        assert!(back.is_pinned(ExecPlan::PIN_ALL));
        // Unknown names are a miss, not a panic.
        let mut bad = rec;
        bad.layout = "diagonal".into();
        assert!(bad.to_plan().is_none());
    }

    #[test]
    fn version_mismatch_and_garbage_are_errors_not_panics() {
        let v9 = "{\"version\": 9, \"entries\": []}";
        assert!(matches!(
            TuneDb::parse(v9),
            Err(DbError::VersionMismatch { found: 9 })
        ));
        for garbage in [
            "",
            "not json",
            "{\"version\": 1",
            "{\"version\": 1, \"entries\": [{\"k\": 3}]}",
            "{\"entries\": []}",
            "[1,2,3]",
        ] {
            assert!(
                TuneDb::parse(garbage).is_err(),
                "{garbage:?} must be rejected"
            );
        }
    }

    #[test]
    fn stale_kernel_generations_are_dropped_not_errors() {
        // A generation-1 document: written before the precision axis
        // existed, so its plan objects have no "precision" field. It
        // must load as an *empty* database — silently retired, never a
        // parse error (the file itself is well-formed for its era).
        let gen1 = "{\"version\": 1, \"entries\": [\n    \
             {\"fingerprint\": \"0x0000000000000007\", \"k\": 64, \"threads\": 1, \
             \"kernel_version\": 1, \"tier\": \"measure\", \"measured_s\": 0.01, \
             \"plan\": {\"exec\": \"fused\", \"reorder\": \"off\", \"layout\": \"tight\", \
             \"micro\": \"blocked\", \"simd\": \"wide\", \"col_tile\": 0, \
             \"spmmt_chunks\": 4}}\n  ]\n}\n";
        let db = TuneDb::parse(gen1).expect("stale generations must still load");
        assert!(db.entries.is_empty(), "{:?}", db.entries);

        // A generation-2 document: complete for its era, including the
        // chunk-count column generation 3 dropped. Retired the same way.
        let gen2 = "{\"version\": 1, \"entries\": [\n    \
             {\"fingerprint\": \"0x0000000000000007\", \"k\": 64, \"threads\": 1, \
             \"kernel_version\": 2, \"tier\": \"measure\", \"measured_s\": 0.01, \
             \"plan\": {\"exec\": \"fused\", \"reorder\": \"off\", \"layout\": \"tight\", \
             \"micro\": \"blocked\", \"simd\": \"wide\", \"col_tile\": 0, \
             \"spmmt_chunks\": 4, \"precision\": \"f32\"}}\n  ]\n}\n";
        let db = TuneDb::parse(gen2).expect("generation 2 must still load");
        assert!(db.entries.is_empty(), "{:?}", db.entries);

        // Mixed documents keep only the current generation.
        let mut mixed = TuneDb::new();
        mixed.put(entry(42, 8));
        let mixed_text = mixed.to_json().replace(
            "  \"entries\": [",
            "  \"entries\": [\n    {\"fingerprint\": \"0x0000000000000009\", \"k\": 8, \
             \"threads\": 2, \"kernel_version\": 1, \"tier\": \"model\", \
             \"measured_s\": 0.0, \"plan\": {\"exec\": \"staged\"}},",
        );
        let back = TuneDb::parse(&mixed_text).expect("mixed generations must load");
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].key.fingerprint, 42);

        // A malformed entry claiming the *current* generation is still
        // an error — the drop rule is strictly about stale versions.
        let bad_current = format!(
            "{{\"version\": 1, \"entries\": [{{\"fingerprint\": \"0x01\", \"k\": 1, \
             \"threads\": 1, \"kernel_version\": {}, \"tier\": \"model\", \
             \"measured_s\": 0.0, \"plan\": {{\"exec\": \"fused\"}}}}]}}",
            crate::tune::KERNEL_VERSION
        );
        assert!(TuneDb::parse(&bad_current).is_err());
    }

    #[test]
    fn fingerprints_survive_as_hex_strings() {
        let mut db = TuneDb::new();
        // A value that would lose bits as an f64.
        let fp = u64::MAX - 1;
        db.put(entry(fp, 0));
        let back = TuneDb::parse(&db.to_json()).unwrap();
        assert_eq!(back.entries[0].key.fingerprint, fp);
    }
}

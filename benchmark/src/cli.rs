//! Command-line arguments shared by the gated and the traced binary.

use crate::spec::Workload;

/// Default length of one run's measuring window, in seconds; the same
/// value as `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;
/// Window of a `--smoke` run.
pub const SMOKE_SECONDS: f64 = 2.0;

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `None`: run every workload, one fresh process each.
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Explicit `--seconds`; see [`Args::window`].
    pub seconds: Option<f64>,
    pub trace: bool,
    /// n = 2048, 2 s windows, results under `results/smoke/`.
    pub smoke: bool,
    /// Runs per workload when running them all (seeds `seed..seed+repeat`).
    pub repeat: usize,
    /// Stamped into the results file by `run.sh`.
    pub git_rev: String,
    /// Results file override (default depends on `smoke` and `trace`).
    pub out: Option<String>,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: None,
            seed: 0,
            seconds: None,
            trace: false,
            smoke: false,
            repeat: 1,
            git_rev: "unknown".into(),
            out: None,
        };
        let mut it = argv.into_iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value ({what})"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    args.workload = Some(
                        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => args.seed = num(&value("a whole number")?)?,
                "--seconds" => {
                    let s: f64 = num(&value("seconds")?)?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is out of range"));
                    }
                    args.seconds = Some(s);
                }
                "--repeat" => args.repeat = num::<usize>(&value("a count")?)?.max(1),
                "--git-rev" => args.git_rev = value("a revision")?,
                "--out" => args.out = Some(value("a path")?),
                "--smoke" => args.smoke = true,
                // The driver passes `--trace 0|1`; by hand it is a bare flag.
                "--trace" => match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                    }
                    Some("1") => {
                        it.next();
                        args.trace = true;
                    }
                    _ => args.trace = true,
                },
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    /// The measuring window of one run.
    pub fn window(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form() {
        let a = parse("--workload serve_er --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ServeEr));
        assert_eq!((a.seed, a.window(), a.trace), (7, 10.0, true));
        assert!(!parse("--workload infer_er --trace 0").unwrap().trace);
    }

    #[test]
    fn hand_form_and_defaults() {
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.window(), SMOKE_SECONDS);
        assert_eq!(parse("").unwrap().window(), RUN_SECONDS);
        assert_eq!(parse("--trace --seed 3").unwrap().seed, 3);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}

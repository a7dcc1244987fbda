//! Command-line parsing for every `stencil-bench` binary: one typed
//! flag parser ([`Flags`]) that refuses bad input with a [`CliError`]
//! instead of exiting or panicking, one usage path ([`parse_argv`]),
//! and the [`RunOpts`] the experiment binaries share.

use std::ops::RangeBounds;
use std::str::FromStr;

use gpu_sim::GridDims;
use stencil_grid::Precision;

/// Environment variable naming the persistent tune-store path every
/// tuning binary honors (`--store <path>` overrides it).
pub const TUNE_STORE_ENV: &str = "INPLANE_TUNE_STORE";

/// The tune-store path: `flag` when given, else [`TUNE_STORE_ENV`] when
/// it is set and non-empty. The one reader of that variable.
pub fn tune_store_path(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var(TUNE_STORE_ENV).ok().filter(|p| !p.is_empty()))
}

/// A refused command line; [`parse_argv`] prints it with the binary's
/// usage text and exits with code 2.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// `--help` or `-h`.
    Help,
    /// An unknown flag, a missing value, a value that does not parse or
    /// lies outside the flag's range, or a non-Unicode argument.
    Usage(String),
}

/// The flags one binary declares, each bound to a setter of the field
/// it fills: `(name, takes a value, parse-and-set)`, the setter
/// returning `false` to refuse a value. `--help`/`-h` always end in
/// [`CliError::Help`].
#[derive(Default)]
pub struct Flags<'a>(Vec<(&'static str, bool, Setter<'a>)>);

type Setter<'a> = Box<dyn FnMut(&str) -> bool + 'a>;

impl<'a> Flags<'a> {
    /// A flag without a value: `set` runs each time it appears.
    pub fn switch(mut self, name: &'static str, mut set: impl FnMut() + 'a) -> Self {
        let store = move |_: &str| {
            set();
            true
        };
        self.0.push((name, false, Box::new(store)));
        self
    }

    /// A flag whose value `parse` accepts (`Some`, handed to `set`) or
    /// refuses (`None`).
    pub fn parsed<T>(
        mut self,
        name: &'static str,
        parse: impl Fn(&str) -> Option<T> + 'a,
        mut set: impl FnMut(T) + 'a,
    ) -> Self {
        let store = move |s: &str| parse(s).map(&mut set).is_some();
        self.0.push((name, true, Box::new(store)));
        self
    }

    /// A flag whose value is any `T` that parses.
    pub fn value<T: FromStr>(self, name: &'static str, set: impl FnMut(T) + 'a) -> Self {
        self.parsed(name, |s| s.parse().ok(), set)
    }

    /// A flag whose value must parse and lie in `range` (NaN never does).
    pub fn range<T: FromStr + PartialOrd>(
        self,
        name: &'static str,
        range: impl RangeBounds<T> + 'a,
        set: impl FnMut(T) + 'a,
    ) -> Self {
        self.parsed(
            name,
            move |s| s.parse().ok().filter(|v| range.contains(v)),
            set,
        )
    }

    /// Apply `argv` (without the program name) left to right; a flag
    /// given twice keeps its last value.
    pub fn parse(mut self, argv: impl IntoIterator<Item = String>) -> Result<(), CliError> {
        let refuse = |msg: String| Err(CliError::Usage(msg));
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            let Some((_, takes_value, set)) = self.0.iter_mut().find(|f| f.0 == arg) else {
                return refuse(format!("unknown flag `{arg}`"));
            };
            let value = match takes_value {
                true => argv.next(),
                false => Some(String::new()),
            };
            let Some(value) = value else {
                return refuse(format!("`{arg}` needs a value"));
            };
            if !set(&value) {
                return refuse(format!("invalid value `{value}` for `{arg}`"));
            }
        }
        Ok(())
    }
}

/// Parse this process's arguments with `parse`. On any refusal print
/// the reason (none for `--help`) and `usage` to stderr and exit with
/// code 2: the one usage path of every binary.
pub fn parse_argv<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, CliError>) -> T {
    let argv = std::env::args_os().skip(1).map(|a| {
        a.into_string()
            .map_err(|a| CliError::Usage(format!("`{}` is not valid Unicode", a.to_string_lossy())))
    });
    argv.collect::<Result<_, _>>()
        .and_then(parse)
        .unwrap_or_else(|e| {
            if let CliError::Usage(reason) = e {
                eprintln!("error: {reason}");
            }
            eprintln!("{usage}");
            std::process::exit(2)
        })
}

/// The `--precision` spelling: `sp` or `dp`.
pub fn precision_arg(s: &str) -> Option<Precision> {
    match s {
        "sp" => Some(Precision::Single),
        "dp" => Some(Precision::Double),
        _ => None,
    }
}

/// Usage text of the binaries that take [`RunOpts`].
pub const RUN_OPTS_USAGE: &str = "\
usage: <experiment> [--quick] [--seed N] [--csv DIR] [--store PATH]
--quick       quarter-size grid (256x256x64) and the reduced search space
--seed N      seed of the deterministic measurement noise (default 1)
--csv DIR     also write the experiment's table as CSV under DIR
--store PATH  persist tuning results in this JSONL store (default: the
              INPLANE_TUNE_STORE environment variable), so a repeated run
              is served from disk without re-searching";

/// Run options parsed from the command line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOpts {
    /// Reduced grid / search space for fast runs.
    pub quick: bool,
    /// Seed for the deterministic measurement noise.
    pub seed: u64,
    /// Directory to write per-experiment CSV data into (`--csv <dir>`).
    pub csv_dir: Option<String>,
    /// Path of the persistent tune store (`--store <path>`, or the
    /// `INPLANE_TUNE_STORE` environment variable).
    pub tune_store: Option<String>,
}

impl RunOpts {
    /// Parse `--quick`, `--seed <n>`, `--csv <dir>` and
    /// `--store <path>` from `argv` (without the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        let mut o = RunOpts {
            quick: false,
            seed: 1,
            csv_dir: None,
            tune_store: None,
        };
        Flags::default()
            .switch("--quick", || o.quick = true)
            .value("--seed", |v| o.seed = v)
            .value("--csv", |v| o.csv_dir = Some(v))
            .value("--store", |v| o.tune_store = Some(v))
            .parse(argv)?;
        Ok(o)
    }

    /// Parse the process arguments ([`parse_argv`]) and mount the
    /// process-wide tuning service ([`crate::exp::mount_service`]) at
    /// [`tune_store_path`], so every experiment that tunes persists.
    pub fn from_env() -> Self {
        let mut opts = parse_argv(RUN_OPTS_USAGE, Self::parse);
        opts.tune_store = tune_store_path(opts.tune_store.take());
        crate::exp::mount_service(opts.tune_store.as_deref());
        opts
    }

    /// The evaluation grid: the paper's 512×512×256, or a quarter-size
    /// grid in quick mode.
    pub fn dims(&self) -> GridDims {
        if self.quick {
            GridDims::new(256, 256, 64)
        } else {
            GridDims::paper()
        }
    }
}

#[cfg(test)]
#[path = "../tests/common/argv.rs"]
mod argv_property;

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_paper_grid() {
        let o = RunOpts::parse(Vec::new()).unwrap();
        assert!(!o.quick);
        assert_eq!(o.dims(), GridDims::paper());
    }

    #[test]
    fn parses_quick_and_seed() {
        let o = RunOpts::parse(argv(&["--quick", "--seed", "7"])).unwrap();
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.dims(), GridDims::new(256, 256, 64));
    }

    #[test]
    fn parses_csv_dir() {
        let o = RunOpts::parse(argv(&["--csv", "out"])).unwrap();
        assert_eq!(o.csv_dir.as_deref(), Some("out"));
    }

    #[test]
    fn parses_store_path() {
        let o = RunOpts::parse(argv(&["--store", "/tmp/s.jsonl"])).unwrap();
        assert_eq!(o.tune_store.as_deref(), Some("/tmp/s.jsonl"));
    }

    fn refused(why: &str) -> Result<RunOpts, CliError> {
        Err(CliError::Usage(why.into()))
    }

    #[test]
    fn refuses_unknown_flags() {
        assert_eq!(
            RunOpts::parse(argv(&["--quik"])),
            refused("unknown flag `--quik`")
        );
        assert_eq!(RunOpts::parse(argv(&["-h"])), Err(CliError::Help));
    }

    #[test]
    fn refuses_a_missing_or_malformed_seed() {
        let missing = RunOpts::parse(argv(&["--quick", "--seed"]));
        assert_eq!(missing, refused("`--seed` needs a value"));
        for bad in ["x", "-1", "18446744073709551616", ""] {
            assert_eq!(
                RunOpts::parse(argv(&["--seed", bad])),
                refused(&format!("invalid value `{bad}` for `--seed`"))
            );
        }
        let max = RunOpts::parse(argv(&["--seed", "18446744073709551615"])).unwrap();
        assert_eq!(max.seed, u64::MAX);
    }

    #[test]
    fn switches_take_no_value_and_ranges_admit_their_edges_only() {
        let parse = |args: &[&str]| {
            let (mut n, mut p, mut on) = (0usize, 0.0f64, false);
            Flags::default()
                .range("--n", 2..=8, |v| n = v)
                .range("--p", 0.0..=1.0, |v| p = v)
                .switch("--on", || on = true)
                .parse(argv(args))
                .map(|()| (n, p, on))
        };
        assert_eq!(
            parse(&["--n", "2", "--on", "--n", "8", "--p", "1"]),
            Ok((8, 1.0, true))
        );
        assert_eq!(parse(&["--p", "0"]), Ok((0, 0.0, false)));
        for bad in [["--n", "1"], ["--n", "9"], ["--p", "1.01"], ["--p", "NaN"]] {
            let why = format!("invalid value `{}` for `{}`", bad[1], bad[0]);
            assert_eq!(parse(&bad), Err(CliError::Usage(why)));
        }
        assert!(parse(&["--on", "1"]).is_err(), "a switch takes no value");
    }

    #[test]
    fn never_panics_on_generated_argv() {
        let (accepted, rejected) = argv_property::run(
            0x5eed_0001,
            &[
                "--quick", "--seed", "--csv", "--store", "--quik", "-h", "--",
            ],
            &[
                "0",
                "18446744073709551615",
                "18446744073709551616",
                "-1",
                "x",
                "",
                "dir",
            ],
            RunOpts::parse,
        );
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}

//! Command line, seeds and the configuration record.

use std::ffi::OsString;

/// Environment overrides the benchmark refuses: each silently changes the
/// measured configuration (an unparsable value falls back to the default),
/// so a result taken under one could not be trusted to say what it ran.
pub const REFUSED_ENV: [&str; 2] = ["RWS_POOL_THREADS", "RWS_STORE_SHARDS"];

/// Fail if any refused override is set. `lookup` reads the environment.
pub fn refuse_overrides(lookup: impl Fn(&str) -> Option<OsString>) -> Result<(), String> {
    let set: Vec<String> = REFUSED_ENV
        .iter()
        .filter_map(|name| lookup(name).map(|v| format!("{name}={}", v.to_string_lossy())))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {}: the benchmark measures the default pool width and store shard count; unset it",
            set.join(", ")
        ))
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full paper reproduction per iteration, fresh seeds each time.
    ReproPaper,
    /// `run_all` over paper-scale scenarios built in set-up.
    Experiments,
    /// A fault-storm load replay over corpora built in set-up.
    LoadStorm,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ReproPaper,
        Workload::Experiments,
        Workload::LoadStorm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproPaper => "repro-paper",
            Workload::Experiments => "experiments",
            Workload::LoadStorm => "load-storm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses unless told otherwise.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ReproPaper => 1,
            Workload::Experiments => 2,
            Workload::LoadStorm => 3,
        }
    }

    /// The seed kept back for confirming a claimed gain: never used while
    /// a change is being written.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::ReproPaper => 9_001,
            Workload::Experiments => 9_002,
            Workload::LoadStorm => 9_003,
        }
    }

    /// What the numbers say about `seed`: default, held-out or neither.
    pub fn seed_role(self, seed: u64) -> &'static str {
        if seed == self.default_seed() {
            "default"
        } else if seed == self.held_out_seed() {
            "held-out"
        } else {
            "other"
        }
    }
}

/// A run's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// How long the timed loop runs at least.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Usage text printed on a bad command line.
pub const USAGE: &str = "usage: e2e_bench --workload <repro-paper|experiments|load-storm> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]\n       e2e_bench compare <base> <head> [--spec BENCHMARK.json]";

/// Parse `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Derive an independent 64-bit seed from `(seed, index)` (SplitMix64
/// finaliser over a golden-ratio step).
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The git commit the benchmark was built from (`unknown` outside git).
pub const GIT_COMMIT: &str = env!("E2E_BENCH_GIT_COMMIT");

/// The compiler that built the benchmark.
pub const RUSTC_VERSION: &str = env!("E2E_BENCH_RUSTC");

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "load-storm",
            "--seed",
            "5",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Workload::LoadStorm);
        assert_eq!(args.seed, 5);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        let default = parse_args(&strings(&["--workload", "experiments"])).unwrap();
        assert_eq!(default.seed, Workload::Experiments.default_seed());
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "repro-paper", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn derived_seeds_differ_by_index_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(9, 4), derive_seed(9, 4));
    }
}

//! `e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload; `e2e_bench compare <base> <head>` compares two
//! result sets. Run from the repository root.

use e2e_bench::config::{parse_args, refuse_overrides, USAGE};
use e2e_bench::trace::Tracer;
use e2e_bench::{compare, config_record, metric_lines, result_of, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return run_compare(&argv[1..]);
    }
    if let Err(message) = refuse_overrides(|name| std::env::var_os(name)) {
        eprintln!("e2e_bench: {message}");
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e_bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let tracer = Tracer::new();
    let outcome = workloads::run(&args, &tracer);
    let result = result_of(&args, &outcome);
    for failure in &outcome.failures {
        eprintln!("e2e_bench: output check failed: {failure}");
    }
    if args.trace {
        let path = Path::new(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2e_bench: could not write {}: {e}", path.display()),
        }
    }
    for line in metric_lines(&outcome, &result) {
        println!("{line}");
    }
    println!("{}", config_record(&args, &outcome));
    println!("{}", result.to_json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(argv: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            match it.next() {
                Some(path) => spec = PathBuf::from(path),
                None => {
                    eprintln!("e2e_bench: --spec needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    let [base, head] = paths.as_slice() else {
        eprintln!("e2e_bench: compare takes a base and a head result set\n{USAGE}");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string(&spec)
        .map_err(|e| format!("{}: {e}", spec.display()))
        .and_then(|text| compare::parse_spec(&text))
        .and_then(|specs| Ok((specs, compare::read_runs(base)?, compare::read_runs(head)?)));
    match loaded {
        Ok((specs, base, head)) => {
            print!("{}", compare::compare(&base, &head, &specs));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2e_bench: {message}");
            ExitCode::from(2)
        }
    }
}

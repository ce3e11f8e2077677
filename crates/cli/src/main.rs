//! `ftes` — synthesize fault-tolerant schedules from a `.ftes` system
//! specification.
//!
//! ```text
//! USAGE:
//!   ftes <spec.ftes> [--csv] [--markdown] [--dot] [--timeline] [--verify]
//!   ftes --demo      [same flags]          # runs the built-in Fig. 5 spec
//!   ftes explore …   # parallel design-space exploration (see --help)
//!   ftes corpus …    # generate + batch-run scenario-spec families (see --help)
//!   ftes serve …     # run the synthesis HTTP service (see --help)
//!   ftes load …      # drive load against a running service (see --help)
//!   ftes jobs …      # submit/poll/cancel asynchronous daemon jobs (see --help)
//!   ftes lint …      # run the workspace invariant analyzer (see --help)
//! ```

#![forbid(unsafe_code)]

use ftes::sched::export::{
    scenario_timeline, tables_to_csv, tables_to_markdown, timeline_to_ascii,
};
use ftes::sim::verify_exhaustive;
use ftes::{synthesize_system, FlowConfig};
use ftes_cli::{
    parse_spec, CorpusCommand, ExploreCommand, JobsCommand, LintCommand, LoadCommand, ServeCommand,
    SystemSpec, TraceCapture, FIG5_SPEC,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => return run_explore(&args[1..]),
        Some("corpus") => return run_corpus_cmd(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("load") => return run_load_cmd(&args[1..]),
        Some("jobs") => return run_jobs_cmd(&args[1..]),
        Some("lint") => return run_lint_cmd(&args[1..]),
        _ => {}
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    // Value-carrying flags come out first; everything `--` that remains
    // is a boolean flag.
    let capture = match TraceCapture::take_from(&mut args) {
        Ok(capture) => capture,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let flags: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| a.starts_with("--")).collect();
    let input = args.iter().find(|a| !a.starts_with("--"));

    let text = if flags.contains(&"--demo") {
        FIG5_SPEC.to_string()
    } else {
        let Some(path) = input else {
            eprintln!("error: no input file (try --demo)");
            return ExitCode::FAILURE;
        };
        match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let verdict = capture.run(|| run(&parse_spec(&text)?, &flags));
    let verdict = match verdict {
        Ok(verdict) => verdict,
        Err(e) => {
            eprintln!("error: writing trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    match verdict {
        Ok(schedulable) => {
            if schedulable {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &SystemSpec, flags: &[&str]) -> Result<bool, Box<dyn std::error::Error>> {
    let config = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
    let psi =
        synthesize_system(&spec.app, &spec.platform, spec.fault_model, &spec.transparency, config)?;

    println!(
        "synthesized with {} for {}: worst case {} vs deadline {} => {}",
        spec.strategy,
        spec.fault_model,
        psi.worst_case_length(),
        spec.app.deadline(),
        if psi.schedulable { "SCHEDULABLE" } else { "NOT SCHEDULABLE" },
    );
    match psi.certification {
        ftes::Certification::Certified { exact_len } => println!(
            "certified on the exact conditional schedule: exact {} (estimate {}, \
             calibration {:.3}x, {} repair round{})",
            exact_len,
            psi.estimate.worst_case_length,
            psi.calibration_milli as f64 / 1000.0,
            psi.repair_rounds,
            if psi.repair_rounds == 1 { "" } else { "s" },
        ),
        ftes::Certification::Refuted { exact_len } => println!(
            "NOT CERTIFIED: exact schedule length {} refutes the estimate {} \
             (repair exhausted after {} rounds)",
            exact_len, psi.estimate.worst_case_length, psi.repair_rounds,
        ),
        ftes::Certification::Uncertifiable => {
            println!("(FT-CPG over the size budget; certified:false, estimate-only verdict)")
        }
    }
    for (pid, policy) in psi.policies.iter() {
        println!(
            "  {:<12} {:?} on N{} (Q={})",
            spec.app.process(pid).name(),
            policy.kind(),
            psi.mapping.node_of(pid).index(),
            policy.replica_count(),
        );
    }

    let Some(exact) = psi.exact.as_ref() else {
        println!("(instance too large for exact tables; estimate only)");
        return Ok(psi.schedulable);
    };
    if flags.contains(&"--csv") {
        print!("{}", tables_to_csv(&exact.tables, &exact.cpg));
    }
    if flags.contains(&"--markdown") {
        print!("{}", tables_to_markdown(&exact.tables, &exact.cpg));
    }
    if flags.contains(&"--dot") {
        print!("{}", ftes::ftcpg::dot::ftcpg_to_dot(&exact.cpg));
    }
    if flags.contains(&"--timeline") {
        let bars = scenario_timeline(
            &exact.cpg,
            &exact.schedule,
            &ftes::ftcpg::FaultScenario::fault_free(),
        );
        print!("{}", timeline_to_ascii(&bars, 72));
    }
    if flags.contains(&"--verify") {
        let verdict = verify_exhaustive(
            &spec.app,
            &exact.cpg,
            &exact.schedule,
            &spec.transparency,
            1_000_000,
        )?;
        println!(
            "verified {} fault scenarios: worst makespan {}, sound: {}",
            verdict.scenarios,
            verdict.worst_makespan,
            verdict.is_sound()
        );
    }
    Ok(psi.schedulable)
}

fn run_explore(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match ExploreCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_corpus_cmd(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match CorpusCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_serve(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match ServeCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_load_cmd(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match LoadCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_jobs_cmd(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match JobsCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_lint_cmd(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let cmd = match LintCommand::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.execute() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "ftes — synthesis of fault-tolerant embedded systems (DATE 2008 reproduction)\n\n\
         USAGE:\n  ftes <spec.ftes> [flags]\n  ftes --demo [flags]\n  \
         ftes explore [explore flags]\n  ftes corpus <action> [corpus flags]\n  \
         ftes serve [serve flags]\n  ftes load [load flags]\n\n\
         FLAGS:\n  --csv        print schedule tables as CSV\n  \
         --markdown   print schedule tables as Markdown\n  \
         --dot        print the FT-CPG in Graphviz DOT\n  \
         --timeline   print the fault-free Gantt timeline\n  \
         --verify     exhaustively fault-inject the synthesized schedule\n  \
         --demo       use the built-in Fig. 5 specification\n  \
         --trace FILE   write a Chrome trace of the run (chrome://tracing)\n  \
         --folded FILE  write folded stacks of the run (flamegraph input)\n\n\
         EXPLORE (parallel design-space exploration over a scenario grid):\n  \
         --grid paper            the paper's §6 grid (20–100 processes, k 3–7)\n  \
         --processes N --nodes N --k K   one custom point\n  \
         --seeds N    workloads per point        --seed N     master seed\n  \
         --threads N  concurrent workers         --point-par N concurrent points\n  \
         --rounds N   portfolio rounds           --iters N    iterations/round\n  \
         --verify     fault-inject each incumbent (verified column)\n  \
         --no-certify skip exact certification of incumbents (on by default)\n  \
         --certify-guided  certify incumbents inside the search loop (demote\n  \
         \u{20}            refuted states during search, not after)\n  \
         --csv | --json               machine-readable output\n  \
         --out FILE                   also write the report to FILE\n  \
         --trace FILE | --folded FILE trace the suite run (side files)\n\n\
         CORPUS (scenario-spec families + batch synthesis driver):\n  \
         list                         print the family catalog\n  \
         generate [--family all|NAME[,NAME]] [--seed N] [--out DIR]\n  \
         \u{20}            emit deterministic .ftes files (default: all families, seed 7)\n  \
         run [--dir DIR] [--workers N] [--csv FILE] [--json FILE] [--fresh]\n  \
         \u{20}            batch-run a corpus through explore+certify; the CSV is\n  \
         \u{20}            the resumable progress state and is byte-identical for\n  \
         \u{20}            any worker count\n\n\
         SERVE (the synthesis HTTP service; prints `listening on HOST:PORT`):\n  \
         --addr HOST:PORT | --port N  bind address (default 127.0.0.1:0)\n  \
         --workers N   handler threads            --queue N    connection-queue bound\n  \
         --cache-entries N            result-cache capacity\n  \
         --journal DIR crash-safe job journal (killed daemon resumes on restart)\n  \
         --job-queue N job-queue bound (16)       --job-workers N  job threads (1)\n  \
         --trace-dir DIR  stream a Chrome trace to DIR/trace.json (~1s flush)\n\n\
         LOAD (closed-loop load harness against a running service):\n  \
         --addr HOST:PORT  target (required)      --clients N  threads (8)\n  \
         --requests N  total requests (50)        --spec FILE  mix entry (repeatable)\n  \
         --jobs N      async submit->poll->result round trips on top of the mix\n\n\
         JOBS (thin client for the daemon's asynchronous job API):\n  \
         submit --addr A (--spec FILE | --demo | --explore \"PARAMS\" |\n  \
         \u{20}                --corpus-family NAME [--seed N] [--workers N]) [--wait]\n  \
         list   --addr A              id-ordered job summaries\n  \
         status --addr A ID [--wait] [--result]   snapshot / raw result bytes\n  \
         cancel --addr A ID           cancel at the next row boundary\n\n\
         LINT (the ftes-lint workspace invariant analyzer; see docs/lints.md):\n  \
         --json        machine-readable JSON diagnostics on stdout\n  \
         --rule NAME   run one rule (determinism, byte-identity, atomics-policy,\n  \
         \u{20}             panic-freedom, forbid-unsafe, taxonomy, allow-syntax)\n  \
         --out FILE    also write the JSON report to FILE (CI artifact)\n  \
         --root DIR    workspace root (default: nearest Cargo.toml + crates/)\n\n\
         EXIT CODE: 0 schedulable (load: all ok; lint: clean), 2 not\n  \
         (load: failures; lint: diagnostics), 1 error"
    );
}

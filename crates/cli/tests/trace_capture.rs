//! One-shot trace capture loses no events: `--trace`/`--folded` drain the
//! per-thread ring buffers while the command runs, not once after it. A
//! test binary of its own, because the trace gate, the rings and the
//! dropped-event count are process-global.

use ftes_cli::ExploreCommand;
use std::path::PathBuf;

#[test]
fn a_traced_paper_grid_point_drops_no_events() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ftes-trace-capture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (chrome, folded) = (dir.join("trace.json"), dir.join("folded.txt"));
    // The smallest paper-grid point on one thread: one search thread
    // records more events than its ring holds.
    let args: Vec<String> = [
        "--processes",
        "20",
        "--nodes",
        "4",
        "--k",
        "3",
        "--threads",
        "1",
        "--csv",
        "--trace",
        chrome.to_str().unwrap(),
        "--folded",
        folded.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    ExploreCommand::parse(&args).unwrap().execute().unwrap();

    assert_eq!(ftes::obs::dropped_events(), 0);
    let trace = std::fs::read_to_string(&chrome).unwrap();
    let summary = ftes::obs::validate::validate_chrome_trace(&trace).unwrap();
    assert!(summary.events > 1 << 14, "more events than one ring holds: {}", summary.events);
    let folded = std::fs::read_to_string(&folded).unwrap();
    let stack = |line: &str| line.split(' ').next().unwrap_or_default().to_string();
    assert!(folded.lines().any(|line| stack(line).split(';').any(|f| f == "certify")), "{folded}");
    std::fs::remove_dir_all(&dir).unwrap();
}

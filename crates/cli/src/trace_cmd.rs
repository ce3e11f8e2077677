//! Trace-capture plumbing shared by the CLI subcommands.
//!
//! Tracing is a side channel by contract: every trace artifact goes to a
//! file the user named and every status line about it goes to stderr, so
//! the deterministic stdout contracts (CSV tables, JSON reports) hold
//! with tracing on. One-shot commands capture with [`TraceCapture`]
//! (enable → run while a background thread drains → write); the resident
//! `ftes serve` daemon streams through [`spawn_trace_flusher`] instead,
//! appending to an incrementally-loadable Chrome trace about once a second
//! so a `kill -9`'d daemon still leaves a readable file behind. Both drain
//! through one loop, `drain_every`.

use ftes::obs::{self, TraceEvent};
use std::io;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often a one-shot capture drains the per-thread rings. A search
/// thread records a few hundred events per millisecond and a ring holds
/// 2^14, so a drain must come within a few tens of milliseconds or the
/// ring drops events.
const CAPTURE_DRAIN_PERIOD: Duration = Duration::from_millis(10);

/// Removes `flag VALUE` from `args`, returning the value.
///
/// Used for the root command, whose remaining `--` arguments are plain
/// boolean flags — a value-carrying flag must be extracted first or its
/// value would be mistaken for the input file.
///
/// # Errors
///
/// Returns a message when the flag is present without a value.
pub fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// One-shot trace capture: the whole command runs traced while a
/// background thread drains the ring buffers, then the events are written
/// out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCapture {
    /// Chrome-trace-event JSON output path (`--trace FILE`).
    pub chrome: Option<String>,
    /// Folded-stack text output path (`--folded FILE`), one
    /// `root;child;leaf <self-µs>` line per stack — flamegraph input.
    pub folded: Option<String>,
}

impl TraceCapture {
    /// Extracts `--trace FILE` and `--folded FILE` from `args`.
    ///
    /// # Errors
    ///
    /// Returns a message when either flag is present without a value.
    pub fn take_from(args: &mut Vec<String>) -> Result<Self, String> {
        Ok(TraceCapture {
            chrome: take_value_flag(args, "--trace")?,
            folded: take_value_flag(args, "--folded")?,
        })
    }

    /// Whether any output was requested.
    pub fn active(&self) -> bool {
        self.chrome.is_some() || self.folded.is_some()
    }

    /// Runs `command` traced when any output was requested, draining the
    /// ring buffers on a background thread while it runs, then writes the
    /// requested artifacts, reporting each file on stderr. The artifacts
    /// are written whatever `command` returns: a failed run's partial trace
    /// is what diagnoses the failure.
    ///
    /// # Errors
    ///
    /// Propagates a failure to start the drain thread and output-file IO
    /// errors.
    pub fn run<T>(&self, command: impl FnOnce() -> T) -> io::Result<T> {
        if !self.active() {
            return Ok(command());
        }
        let stop = AtomicBool::new(false);
        let (out, events) = std::thread::scope(|scope| {
            let drainer = std::thread::Builder::new()
                .name("ftes-trace-drain".into())
                .spawn_scoped(scope, || {
                    let mut events = Vec::new();
                    let drained = drain_every(CAPTURE_DRAIN_PERIOD, &stop, |batch| {
                        events.extend(batch);
                        Ok(())
                    });
                    drained.map(|()| events)
                })?;
            obs::set_enabled(true);
            // A panicking command must still stop the drainer, or the
            // scope would wait for it forever.
            let out = std::panic::catch_unwind(AssertUnwindSafe(command));
            obs::set_enabled(false);
            stop.store(true, Ordering::Release);
            drainer.thread().unpark();
            let events = drainer.join().expect("trace drain thread panicked")?;
            let out = out.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            Ok::<_, io::Error>((out, events))
        })?;
        self.write(&events)?;
        Ok(out)
    }

    /// Writes the requested artifacts of `events`, reporting each file and
    /// any dropped events on stderr.
    fn write(&self, events: &[TraceEvent]) -> io::Result<()> {
        let dropped = obs::dropped_events();
        if let Some(path) = &self.chrome {
            std::fs::write(path, obs::chrome::chrome_trace_json(events))?;
            eprintln!("trace: {} events -> {path} (chrome trace)", events.len());
        }
        if let Some(path) = &self.folded {
            std::fs::write(path, obs::folded::folded_stacks(events))?;
            eprintln!("trace: folded stacks -> {path}");
        }
        if dropped > 0 {
            eprintln!("trace: {dropped} events dropped on full ring buffers");
        }
        Ok(())
    }
}

/// Enables tracing and spawns the daemon's trace flusher: a detached
/// thread draining the ring buffers into `<dir>/trace.json` about once a
/// second. Every append flushes, and the Chrome trace array format stays
/// loadable without its closing bracket, so the trace survives however
/// the daemon dies.
///
/// # Errors
///
/// Propagates directory-creation and file-open failures.
pub fn spawn_trace_flusher(dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("trace.json");
    let file = std::fs::File::create(&path)?;
    let mut writer = obs::chrome::ChromeTraceWriter::new(file)?;
    obs::set_enabled(true);
    std::thread::Builder::new().name("ftes-trace-flush".into()).spawn(move || {
        let never = AtomicBool::new(false);
        if drain_every(Duration::from_secs(1), &never, |events| writer.append(&events)).is_err() {
            // Sink gone (disk full, deleted directory): stop tracing
            // rather than spin on a dead file.
            obs::set_enabled(false);
        }
    })?;
    Ok(path)
}

/// Drains the trace ring buffers into `sink` every `period` until `stop`
/// is set, then once more so that nothing recorded before the stop is
/// lost. Returns the first `sink` error. The setter of `stop` may unpark
/// the draining thread to end the wait early.
fn drain_every(
    period: Duration,
    stop: &AtomicBool,
    mut sink: impl FnMut(Vec<TraceEvent>) -> io::Result<()>,
) -> io::Result<()> {
    loop {
        // Acquire pairs with the stopper's Release store: every event
        // recorded before the stop is visible to the drain below.
        let last = stop.load(Ordering::Acquire);
        let events = obs::drain();
        if !events.is_empty() {
            sink(events)?;
        }
        if last {
            return Ok(());
        }
        std::thread::park_timeout(period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn value_flags_are_extracted_with_their_values() {
        let mut args = words(&["--csv", "--trace", "out.json", "spec.ftes"]);
        assert_eq!(take_value_flag(&mut args, "--trace").unwrap().as_deref(), Some("out.json"));
        assert_eq!(args, words(&["--csv", "spec.ftes"]));
        assert_eq!(take_value_flag(&mut args, "--trace").unwrap(), None);
        let mut args = words(&["--trace"]);
        assert!(take_value_flag(&mut args, "--trace").is_err());
    }

    #[test]
    fn capture_parses_both_outputs_and_reports_activity() {
        let mut args = words(&["--trace", "t.json", "--folded", "f.txt", "--demo"]);
        let capture = TraceCapture::take_from(&mut args).unwrap();
        assert_eq!(capture.chrome.as_deref(), Some("t.json"));
        assert_eq!(capture.folded.as_deref(), Some("f.txt"));
        assert!(capture.active());
        assert_eq!(args, words(&["--demo"]));
        assert!(!TraceCapture::default().active());
    }
}

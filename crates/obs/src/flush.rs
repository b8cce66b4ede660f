//! Interval metrics flusher: a background thread that wakes every
//! `interval`, diffs the registry's [`Snapshot`] against the previous wake,
//! and writes what moved (text or JSON lines) to stderr or a file: a long
//! running binary attaches one to the registry it wants to watch.
//!
//! Dropping the flusher stops the thread and writes one final diff, so even
//! a short-lived binary emits its totals.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use crate::registry::{Registry, Snapshot};

/// How a flushed diff is rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushFormat {
    /// One `name = value` line per moved metric, with a flush header.
    Text,
    /// One JSON object per flush (JSON-lines when writing to a file).
    Json,
}

/// Where flushed diffs go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlushSink {
    /// Write to the process's stderr.
    Stderr,
    /// Append to the file at this path (created if absent).
    File(PathBuf),
}

enum Output {
    Stderr,
    File(File),
}

impl Output {
    fn write(&mut self, chunk: &str) {
        // A sink failing mid-run (disk full, closed stderr) must never take
        // the workload down; the flush is best-effort by design.
        let _ = match self {
            Output::Stderr => io::stderr().write_all(chunk.as_bytes()),
            Output::File(f) => f.write_all(chunk.as_bytes()),
        };
    }
}

/// A background interval flusher over one [`Registry`]. Stops (with a final
/// flush) when dropped.
pub struct Flusher {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Flusher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flusher")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl Flusher {
    /// Starts a flusher over `registry`. Fails only if a file sink cannot
    /// be opened.
    pub fn new(
        registry: &Registry,
        interval: Duration,
        sink: FlushSink,
        format: FlushFormat,
    ) -> io::Result<Flusher> {
        let mut output = match sink {
            FlushSink::Stderr => Output::Stderr,
            FlushSink::File(path) => {
                Output::File(OpenOptions::new().create(true).append(true).open(path)?)
            }
        };
        let registry = registry.clone();
        // Baseline on the caller's thread: anything recorded after `new`
        // returns is guaranteed to land in some diff. Snapshotting inside
        // the spawned thread would race with the caller's first increments
        // and silently absorb them into the baseline.
        let baseline = registry.snapshot();
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = thread::Builder::new()
            .name("repdir-obs-flush".into())
            .spawn(move || {
                let mut last = baseline;
                let mut seq = 0u64;
                loop {
                    let done = matches!(
                        stopped.recv_timeout(interval),
                        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected)
                    );
                    let now = registry.snapshot();
                    flush_one(&mut output, &now.diff(&last), format, seq);
                    last = now;
                    seq += 1;
                    if done {
                        return;
                    }
                }
            })
            .expect("spawn obs flusher");
        Ok(Flusher {
            stop: Some(stop),
            handle: Some(handle),
        })
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        // Dropping the sender wakes recv_timeout with Disconnected; the
        // thread writes one final diff and exits.
        self.stop.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn flush_one(output: &mut Output, diff: &Snapshot, format: FlushFormat, seq: u64) {
    match format {
        FlushFormat::Text => {
            let body = diff.render_text();
            if !body.is_empty() {
                output.write(&format!("== obs flush {seq} ==\n{body}"));
            }
        }
        FlushFormat::Json => {
            output.write(&format!(
                "{{\"flush\": {seq}, \"diff\": {}}}\n",
                diff.render_json()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flusher_writes_interval_diffs_and_final_flush_on_drop() {
        let dir = std::env::temp_dir().join(format!("repdir_obs_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush_test.json");
        let _ = std::fs::remove_file(&path);

        let reg = Registry::new();
        {
            let _flusher = Flusher::new(
                &reg,
                Duration::from_millis(10),
                FlushSink::File(path.clone()),
                FlushFormat::Json,
            )
            .unwrap();
            reg.counter("flush.ops").add(5);
            // At least one interval elapses with the counter movement in it.
            std::thread::sleep(Duration::from_millis(50));
            reg.counter("flush.ops").add(2);
            // Drop without waiting: the final flush must carry the last 2.
        }
        let written = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert!(lines.len() >= 2, "interval + final flush: {written}");
        for line in &lines {
            assert!(line.starts_with("{\"flush\": "), "JSONL shape: {line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        // Every increment is in exactly one diff: the per-flush deltas sum
        // to the counter's total.
        let total: u64 = lines
            .iter()
            .filter_map(|l| {
                let key = "\"flush.ops\": ";
                let at = l.find(key)?;
                let rest = &l[at + key.len()..];
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                rest[..end].parse::<u64>().ok()
            })
            .sum();
        assert_eq!(total, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn text_flushes_skip_quiet_intervals() {
        let dir = std::env::temp_dir().join(format!("repdir_obs_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flush_quiet.txt");
        let _ = std::fs::remove_file(&path);

        let reg = Registry::new();
        reg.counter("warm.up").inc();
        {
            let _flusher = Flusher::new(
                &reg,
                Duration::from_millis(5),
                FlushSink::File(path.clone()),
                FlushFormat::Text,
            )
            .unwrap();
            // Nothing moves while the flusher runs.
            std::thread::sleep(Duration::from_millis(40));
        }
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(
            written.is_empty(),
            "quiet intervals write nothing: {written}"
        );
        std::fs::remove_file(&path).ok();
    }
}

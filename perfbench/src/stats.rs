//! Order statistics, process memory and the in-memory span recorder shared
//! by the end-to-end and traced runs.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Samples sorted ascending (NaN-free input is a caller invariant).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linearly interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let s = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The reported tail of a timing sample: the highest nearest-rank
/// percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`. `None` when fewer than 11 samples exist.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let s = sorted(values);
    let rank = n - 10; // 1-based rank with exactly ten samples above it
    Some(((100 * rank / n) as u32, s[rank - 1]))
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds the calling thread has spent on a CPU (Linux `schedstat`).
/// Unlike wall time it leaves out the spells when the host runs something
/// else, which on a shared machine were most of the run-to-run spread of a
/// single-threaded replay.
pub fn thread_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("thread CPU time is unavailable: {e}"))?;
    let ns: f64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable schedstat: {stat}"))?;
    Ok(ns * 1e-9)
}

/// Seconds all threads of this process have spent on a CPU (`utime` +
/// `stime` of `/proc/self/stat`, in the kernel's 100 Hz user ticks).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("process CPU time is unavailable: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("unreadable /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "unreadable /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// Resets this process's RSS high-water mark to its current RSS (Linux
/// `clear_refs` mode 5), so a later [`peak_rss_mb`] covers only what
/// follows. Returns false where the reset is not available.
pub fn reset_peak_rss() -> bool {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free heap memory to the
    // kernel; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One finished span: a layer call timed from the benchmark's side.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory for the whole traced run and written out once at
/// the end. All spans of one run share the run's trace identifier.
pub struct Spans {
    origin: Instant,
    trace_id: String,
    open: Vec<(u64, String, u64)>,
    done: Vec<Span>,
    next_id: u64,
}

impl Spans {
    pub fn new(trace_id: String) -> Self {
        Spans {
            origin: Instant::now(),
            trace_id,
            open: Vec::new(),
            done: Vec::new(),
            next_id: 1,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// span still open.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.ns(Instant::now());
        self.open.push((id, name.to_string(), start));
        let out = f(self);
        let (id, name, start_ns) = self.open.pop().expect("span stack underflow");
        let end_ns = self.ns(Instant::now());
        let parent = self.open.last().map(|(p, _, _)| *p);
        self.done.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (used for calls made from inside the engine, such as
    /// period decisions).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|(p, _, _)| *p);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.done.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Per span name: calls, total time and self time (total minus the
    /// time covered by direct children), seconds, sorted by name.
    pub fn summary(&self) -> Vec<(String, u64, f64, f64)> {
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in &self.done {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = std::collections::BTreeMap::<&str, (u64, u64, u64)>::new();
        for s in &self.done {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, o))| (n.to_string(), c, t as f64 * 1e-9, o as f64 * 1e-9))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.trace_id, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
    }
}

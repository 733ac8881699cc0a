//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's code around calls into a layer's
//! public functions — never inside the program. Each has a name, start,
//! end, the span that caused it and an id; they stay in memory and are
//! written out as JSON lines when the run ends.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A shared, thread-safe recorder (clones share one buffer).
#[derive(Clone)]
pub struct Spans {
    t0: Instant,
    next: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            next: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn time<R>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
        out
    }

    /// A recorder with a buffer of its own that shares this one's clock
    /// and span ids, so spans written from both stay distinct.
    pub fn sibling(&self) -> Self {
        Self {
            t0: self.t0,
            next: Arc::clone(&self.next),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn all(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Durations (ms) of every span whose name satisfies `pick`.
    pub fn ms_where(&self, pick: impl Fn(&str) -> bool) -> Vec<f64> {
        self.all()
            .iter()
            .filter(|s| pick(&s.name))
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of every span named exactly `name`: its duration
    /// minus the part of it that its child spans cover. Children that run
    /// in parallel cover an interval once.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let all = self.all();
        all.iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(u64, u64)> = all
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .collect();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Append every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in self.all() {
            let mut name = String::new();
            pim_trace::json::write_escaped(&mut name, &s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":{name},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.start_ns, s.end_ns
            ));
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(out.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = Spans::new();
        let span = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        spans.spans.lock().unwrap().extend([
            span(1, None, "run", 0, 10_000_000),
            // Two parallel children covering 2..7 ms, one covering 8..9 ms.
            span(2, Some(1), "job", 2_000_000, 6_000_000),
            span(3, Some(1), "job", 3_000_000, 7_000_000),
            span(4, Some(1), "job", 8_000_000, 9_000_000),
            span(5, None, "run", 20_000_000, 21_000_000),
        ]);
        assert_eq!(spans.self_ms("run"), vec![4.0, 1.0]);
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are opened from the benchmark's own code around calls into each
//! crate. Each records its name, start, end and the span that was open when
//! it started. A span's self time is its duration minus the time its child
//! spans cover; spans nest strictly on one thread, so that is the duration
//! minus the sum of the children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records nothing: `span` only runs its closure.
    pub fn off() -> Tracer {
        Tracer { enabled: false, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::off() }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_owned(), start_ns, end_ns: start_ns, parent });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self time in milliseconds, summed per span name.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `id  parent  name  start_ns  end_ns` (parent `-` for a root span).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(30)));
        });
        let ms = tr.self_ms();
        assert!(ms["inner"] >= 30.0);
        assert!(ms["outer"] >= 2.0 && ms["outer"] < 30.0, "outer self time {}", ms["outer"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.self_ms().is_empty());
    }
}

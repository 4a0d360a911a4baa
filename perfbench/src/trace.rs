//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here reaches inside the program.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request (a frame block, a sweep point) share this.
    pub request: u64,
}

/// Records spans in memory; [`Tracer::to_json`] writes them out at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span named `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent`, `request`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_durations() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 8, |_| ());
        });
        assert!(t.total_us("inner") >= 2000.0);
        assert!(t.total_us("outer") >= t.total_us("inner"));
        assert_eq!(t.total_us("absent"), 0.0);
        let json = t.to_json();
        assert!(json.contains("\"id\":0,\"name\":\"outer\""), "{json}");
        assert!(json.contains("\"name\":\"inner\""), "{json}");
        assert!(json.contains("\"parent\":0,\"request\":8"), "{json}");
        assert!(json.contains("\"parent\":null,\"request\":7"), "{json}");
    }
}

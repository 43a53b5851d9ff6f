//! Spans kept in memory during a traced run and written as JSON at the
//! end: a root span per point (or store pass), with a child span per
//! call into a layer. A child that stands for many calls (a replayed
//! layer, `next_op`) carries their count and summed duration.

use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    parent: Option<usize>,
    name: String,
    start: Duration,
    dur: Duration,
    calls: u64,
}

pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Records a span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) -> usize {
        let start = start.saturating_duration_since(self.origin);
        self.list.push(Span {
            parent,
            name: name.to_string(),
            start,
            dur,
            calls,
        });
        self.list.len() - 1
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<String> = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.3}, \
                     \"dur_us\": {:.3}, \"calls\": {}}}",
                    s.name.replace(['"', '\\'], "'"),
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    s.calls
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

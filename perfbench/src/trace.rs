//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each crate's public functions and
//! written out as one JSON file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.prefill`.
    pub name: &'static str,
    /// The request (or round) the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
}

/// Records spans while enabled; a disabled recorder records nothing.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a span that ran from `start` to `end`; returns its index
    /// (or `None` when disabled) for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            dur_s: end.duration_since(start).as_secs_f64(),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span starting now; [`Recorder::close`] ends it. Returns its
    /// index (or `None` when disabled) for use as a parent.
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: Option<usize>) {
        let now = self.epoch.elapsed().as_secs_f64();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.dur_s = now - span.start_s;
        }
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Self time per span: duration minus the time its children cover.
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.dur_s - c).max(0.0))
            .collect()
    }

    /// The spans as JSON: every span with its self time, plus per-name
    /// totals (count, total and self seconds).
    pub fn to_json(&self) -> String {
        let selfs = self.self_times();
        let mut totals: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let t = totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.dur_s;
            t.2 += own;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"dur_s\": {:.9}, \"self_s\": {:.9}}}{sep}",
                s.name, s.request, s.start_s, s.dur_s, own
            );
        }
        out.push_str("], \"by_name\": {");
        let rows: Vec<String> = totals
            .iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "\n  \"{name}\": {{\"count\": {n}, \"total_s\": {total:.9}, \"self_s\": {own:.9}}}"
                )
            })
            .collect();
        out.push_str(&rows.join(","));
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing_and_self_time_subtracts_children() {
        let mut off = Recorder::new(false);
        let t = Instant::now();
        assert!(off.record("a", 0, None, t, t).is_none() && off.durations("a").is_empty());

        let mut rec = Recorder::new(true);
        let t0 = Instant::now();
        let root = rec.record("req", 7, None, t0, t0 + Duration::from_millis(10));
        let open = rec.open("round", 7, None);
        rec.close(open);
        assert!(rec.durations("round")[0] >= 0.0);
        rec.record("child", 7, root, t0, t0 + Duration::from_millis(4));
        assert_eq!(rec.durations("child").len(), 1);
        let selfs = rec.self_times();
        assert!((selfs[0] - 0.006).abs() < 1e-9, "{selfs:?}");
        let json = rec.to_json();
        assert!(json.contains("\"req\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"parent\": 0"));
    }
}

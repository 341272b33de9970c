//! In-memory spans around the benchmark's own calls into each layer,
//! written out once as Chrome-trace JSON when the traced run ends.

use std::time::Instant;

use crate::json;

/// One closed (or still open) interval. Times are nanoseconds since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The rep this span belongs to; spans of one rep share it.
    pub rep: Option<u32>,
    /// Simulated time reached when the span closed, for the
    /// host-time-over-simulated-time timeline of `core.run_slice`.
    pub sim_us: Option<f64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: Option<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Tags spans opened from now on with rep `id` (`None` outside reps).
    pub fn set_rep(&mut self, id: Option<u32>) {
        self.rep = id;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            sim_us: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Notes the simulated time span `id` reached.
    pub fn set_sim_us(&mut self, id: usize, sim_us: f64) {
        self.spans[id].sim_us = Some(sim_us);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one thread never overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Chrome-trace ("Trace Event Format") JSON: one complete event per span,
/// loadable in `chrome://tracing` and Perfetto. `args` carries what the
/// format has no field for: parent, rep, self time, simulated time.
pub fn chrome_trace(spans: &[Span], process_name: &str) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":{}}}}}",
        json::string(process_name)
    ));
    for (i, s) in spans.iter().enumerate() {
        let mut args = format!(
            "\"id\":{i},\"self_us\":{}",
            json::number(own[i] as f64 / 1e3)
        );
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(r) = s.rep {
            args.push_str(&format!(",\"rep\":{r}"));
        }
        if let Some(t) = s.sim_us {
            args.push_str(&format!(",\"sim_us\":{}", json::number(t)));
        }
        out.push_str(&format!(
            ",\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
             \"args\":{{{args}}}}}",
            json::string(s.name),
            json::string(s.name.split('.').next().unwrap_or(s.name)),
            json::number(s.start_ns as f64 / 1e3),
            json::number(s.dur_ns() as f64 / 1e3),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: None,
            sim_us: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("bench", 0, 100, None),
            span("rep", 10, 90, Some(0)),
            span("core.machine_new", 10, 20, Some(1)),
            span("core.run", 20, 80, Some(1)),
            span("core.run_slice", 20, 50, Some(3)),
        ];
        // bench: 100 - 80; rep: 80 - (10 + 60); run: 60 - 30; leaves keep theirs.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 10, 30, 30]);
    }

    #[test]
    fn recorder_nests_and_tags_reps() {
        let mut r = Recorder::new();
        let bench = r.enter("bench");
        r.set_rep(Some(3));
        r.scope("rep", |r| {
            r.scope("core.run", |_| ());
        });
        r.set_rep(None);
        r.exit(bench);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].rep), (None, None));
        assert_eq!((s[1].parent, s[1].rep), (Some(0), Some(3)));
        assert_eq!((s[2].parent, s[2].rep), (Some(1), Some(3)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(r.durations_ms("core.run").len(), 1);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut s = span("core.run_slice", 1_000, 3_500, Some(0));
        s.rep = Some(2);
        s.sim_us = Some(12.5);
        let text = chrome_trace(&[span("rep", 0, 4_000, None), s], "a \"quoted\" name");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"a \\\"quoted\\\" name\""));
        assert!(text.contains(
            "{\"name\":\"core.run_slice\",\"cat\":\"core\",\"ph\":\"X\",\"ts\":1,\"dur\":2.5,\
             \"pid\":1,\"tid\":1,\"args\":{\"id\":1,\"self_us\":2.5,\"parent\":0,\"rep\":2,\
             \"sim_us\":12.5}}"
        ));
        assert!(text.starts_with('{') && text.trim_end().ends_with("]}"));
    }
}

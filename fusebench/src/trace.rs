//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call from the benchmark into a layer's
//! public function (`CompiledScript::try_execute`, `Engine::try_compile`,
//! `algos::*::run`, `core::explore::explore`, …). Spans nest through a
//! per-recorder stack, carry the id of the unit (round / pass / request)
//! they belong to, stay in memory while the benchmark measures, and are
//! written as Chrome trace-event JSON when it ends. A recorder that is off
//! costs one branch per call, so the untraced run pays nothing measurable.

use crate::json::Json;
use std::time::Instant;

/// Sentinel for "no parent" / "no part".
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    /// The public function called, as `<module>.<function>`.
    pub name: &'static str,
    /// Index into the workload's part names (panel / algorithm / DAG), or
    /// [`NONE`].
    pub part: u32,
    /// Round, pass or request the span belongs to.
    pub unit: u32,
    /// Index of the enclosing span in the same recorder, or [`NONE`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cap: usize,
    dropped: u64,
}

/// Spans one recorder keeps before it starts counting drops instead
/// (48 bytes each: a bounded, pre-allocated 9.6 MB at most).
pub const SPAN_CAP: usize = 200_000;

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// A recording tracer for thread `tid`; all recorders of one run share
    /// `epoch` so their timestamps line up.
    pub fn on(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on: true,
            epoch,
            tid,
            spans: Vec::with_capacity(SPAN_CAP),
            stack: Vec::with_capacity(8),
            cap: SPAN_CAP,
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses / resumes recording (the traced run alternates traced and
    /// untraced units to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between units");
        self.on = on && self.cap > 0;
    }

    /// Opens a span; pair with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str, part: u32, unit: u32) {
        if !self.on {
            return;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            self.stack.push(NONE);
            return;
        }
        let parent = self.stack.iter().rev().copied().find(|&p| p != NONE).unwrap_or(NONE);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span { name, part, unit, parent, start_ns: now, end_ns: now });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        if let Some(ix) = self.stack.pop() {
            if ix != NONE {
                self.spans[ix as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        part: u32,
        unit: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, part, unit);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Total self time per span name over all recorders, in milliseconds: a
/// span's duration minus the part of it its direct children cover.
pub fn self_time_ms(tracers: &[&Tracer]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in t.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => totals.push((s.name, own)),
            }
        }
    }
    totals
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, microsecond timestamps.
pub fn chrome_trace(tracers: &[&Tracer], part_names: &[String]) -> Json {
    let mut events = Vec::new();
    for t in tracers {
        for (ix, s) in t.spans.iter().enumerate() {
            let part = part_names.get(s.part as usize).map_or("", String::as_str);
            let mut args =
                vec![("id", Json::Num(ix as f64)), ("unit", Json::Num(f64::from(s.unit)))];
            if s.parent != NONE {
                args.push(("parent", Json::Num(f64::from(s.parent))));
            }
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(part)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(t.tid))),
                ("args", Json::obj(args)),
            ]));
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now(), 3);
        t.enter("outer", NONE, 0);
        t.span("inner", 1, 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (NONE, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_time_ms(&[&t]);
        let outer = own.iter().find(|(n, _)| *n == "outer").map(|(_, v)| *v).unwrap_or(f64::NAN);
        let inner = own.iter().find(|(n, _)| *n == "inner").map(|(_, v)| *v).unwrap_or(f64::NAN);
        assert!(inner >= 2.0 && outer < inner, "outer {outer} inner {inner}");
        let doc = chrome_trace(&[&t], &["p0".to_string(), "p1".to_string()]);
        let ev = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("cat").and_then(Json::as_str), Some("p1"));
        assert_eq!(ev[1].get("tid").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn off_records_nothing_and_full_counts_drops() {
        let mut off = Tracer::off();
        off.span("x", NONE, 0, || ());
        assert!(off.spans().is_empty() && off.dropped() == 0);
        let mut t = Tracer::on(Instant::now(), 0);
        t.cap = 1;
        t.span("a", NONE, 0, || ());
        t.enter("b", NONE, 1);
        t.span("c", NONE, 1, || ());
        t.exit();
        assert_eq!((t.spans().len(), t.dropped()), (1, 2));
    }
}

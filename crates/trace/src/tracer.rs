//! The [`Tracer`]: a collector of clock-stamped events, plus the
//! per-thread [`TraceSheet`] buffer and its deterministic merge.

use std::sync::{Mutex, MutexGuard, PoisonError};

use edgetune_runtime::Clock;
use edgetune_util::units::Seconds;
use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TraceEvent, TrackId};

/// One named track, grouped under a named process in the exported trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Track {
    /// Process (top-level group) the track renders under.
    pub process: String,
    /// Track (thread row) name.
    pub name: String,
}

#[derive(Debug, Default)]
struct TracerInner {
    tracks: Vec<Track>,
    events: Vec<TraceEvent>,
    next_seq: u64,
}

/// Collects trace events behind one mutex.
///
/// The hot paths of the study (phase B accounting, the serving DES loop)
/// emit from a single thread, so one uncontended mutex is cheap; code
/// that genuinely emits from parallel workers records into a
/// [`TraceSheet`] and merges via [`Tracer::absorb`] instead of taking
/// this lock per event.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Mutex<TracerInner>,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Takes the lock. A poisoned lock means an emitter panicked while
    /// holding it; every update under the lock is a push of a complete
    /// track or event, so the buffers stay valid and the guard is
    /// recovered.
    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or finds) the track named `name` under `process`.
    ///
    /// Registration order is the track's id and its sort order in the
    /// exported trace, so callers must register tracks in a
    /// deterministic order — which they get for free by registering
    /// lazily from deterministic emission sites.
    pub fn track(&self, process: &str, name: &str) -> TrackId {
        let mut inner = self.lock();
        if let Some(index) = inner
            .tracks
            .iter()
            .position(|track| track.process == process && track.name == name)
        {
            return TrackId(index as u32);
        }
        inner.tracks.push(Track {
            process: process.to_string(),
            name: name.to_string(),
        });
        TrackId((inner.tracks.len() - 1) as u32)
    }

    /// Records a span covering `[start, end]` on `track`.
    ///
    /// # Panics
    /// If `end < start` — a span must not end before it starts.
    pub fn span(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        start: Seconds,
        end: Seconds,
    ) {
        self.span_with_args(track, name, category, start, end, Vec::new());
    }

    /// Records a span with viewer-visible string arguments.
    pub fn span_with_args(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        start: Seconds,
        end: Seconds,
        args: Vec<(String, String)>,
    ) {
        assert!(
            end.value() >= start.value(),
            "span must not end before it starts"
        );
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts: start,
            kind: EventKind::Span { end },
            args,
            seq: 0,
        });
    }

    /// Records an instant event at `ts`.
    pub fn instant(&self, track: TrackId, name: impl Into<String>, category: &str, ts: Seconds) {
        self.instant_with_args(track, name, category, ts, Vec::new());
    }

    /// Records an instant event with viewer-visible string arguments.
    pub fn instant_with_args(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        ts: Seconds,
        args: Vec<(String, String)>,
    ) {
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts,
            kind: EventKind::Instant,
            args,
            seq: 0,
        });
    }

    /// Records a counter sample at `ts`.
    pub fn counter(
        &self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        ts: Seconds,
        values: Vec<(String, f64)>,
    ) {
        self.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts,
            kind: EventKind::Counter { values },
            args: Vec::new(),
            seq: 0,
        });
    }

    /// Opens a span starting at `clock`'s current time; the span closes
    /// at the clock's time when the guard drops.
    #[must_use]
    pub fn span_guard<'a>(
        &'a self,
        clock: &'a dyn Clock,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
    ) -> SpanGuard<'a> {
        SpanGuard {
            tracer: self,
            clock,
            track,
            name: name.into(),
            category: category.to_string(),
            start: clock.now(),
        }
    }

    /// Records an instant at `clock`'s current time.
    pub fn instant_now(
        &self,
        clock: &dyn Clock,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
    ) {
        self.instant(track, name, category, clock.now());
    }

    fn push(&self, mut event: TraceEvent) {
        let mut inner = self.lock();
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push(event);
    }

    /// Merges thread-local sheets into the global stream.
    ///
    /// Events are interleaved by (timestamp, sheet rank, local index) —
    /// the same ordered-merge discipline as the tuner's `HistoryMerge` —
    /// so the resulting sequence numbers are independent of which thread
    /// finished first.
    pub fn absorb(&self, sheets: Vec<TraceSheet>) {
        let mut merged: Vec<(u64, TraceEvent)> = Vec::new();
        for sheet in sheets {
            for event in sheet.events {
                merged.push((sheet.rank, event));
            }
        }
        merged.sort_by(|a, b| {
            a.1.ts
                .value()
                .total_cmp(&b.1.ts.value())
                .then(a.0.cmp(&b.0))
                .then(a.1.seq.cmp(&b.1.seq))
        });
        let mut inner = self.lock();
        for (_, mut event) in merged {
            event.seq = inner.next_seq;
            inner.next_seq += 1;
            inner.events.push(event);
        }
    }

    /// A snapshot of every recorded event, in emission order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    /// A snapshot of the registered tracks, in registration order.
    #[must_use]
    pub fn tracks(&self) -> Vec<Track> {
        self.lock().tracks.clone()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII span: closes at the clock's current time on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    clock: &'a dyn Clock,
    track: TrackId,
    name: String,
    category: String,
    start: Seconds,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.span(
            self.track,
            std::mem::take(&mut self.name),
            &self.category,
            self.start,
            self.clock.now(),
        );
    }
}

/// A lock-free per-thread event buffer.
///
/// Workers that cannot cheaply share the tracer's mutex record here and
/// the owner merges the sheets back with [`Tracer::absorb`]. The `rank`
/// is the sheet's deterministic position (worker index, shard index) —
/// it breaks timestamp ties in the merge, so the interleave never
/// depends on thread scheduling.
#[derive(Debug)]
pub struct TraceSheet {
    rank: u64,
    events: Vec<TraceEvent>,
}

impl TraceSheet {
    /// An empty sheet with deterministic merge rank `rank`.
    #[must_use]
    pub fn new(rank: u64) -> Self {
        TraceSheet {
            rank,
            events: Vec::new(),
        }
    }

    /// The sheet's merge rank.
    #[must_use]
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// Records a span on the sheet. Tracks must already be registered on
    /// the tracer the sheet will be absorbed into.
    pub fn span(
        &mut self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        start: Seconds,
        end: Seconds,
    ) {
        assert!(
            end.value() >= start.value(),
            "span must not end before it starts"
        );
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts: start,
            kind: EventKind::Span { end },
            args: Vec::new(),
            seq,
        });
    }

    /// Records an instant event on the sheet.
    pub fn instant(
        &mut self,
        track: TrackId,
        name: impl Into<String>,
        category: &str,
        ts: Seconds,
    ) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent {
            track,
            name: name.into(),
            category: category.to_string(),
            ts,
            kind: EventKind::Instant,
            args: Vec::new(),
            seq,
        });
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the sheet is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use edgetune_runtime::SimClock;

    use super::*;
    use crate::event::EventKind;

    #[test]
    fn track_registration_deduplicates_and_preserves_order() {
        let tracer = Tracer::new();
        let a = tracer.track("engine", "trial-slot-0");
        let b = tracer.track("inference", "sweeps");
        let again = tracer.track("engine", "trial-slot-0");
        assert_eq!(a, again);
        assert_ne!(a, b);
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[a.index()].name, "trial-slot-0");
        assert_eq!(tracks[b.index()].process, "inference");
    }

    #[test]
    fn sequence_numbers_follow_emission_order() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        tracer.span(track, "a", "test", Seconds::new(5.0), Seconds::new(6.0));
        tracer.instant(track, "b", "test", Seconds::new(1.0));
        let events = tracer.snapshot();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].name, "b");
    }

    #[test]
    #[should_panic(expected = "span must not end before it starts")]
    fn backwards_spans_are_rejected() {
        let tracer = Tracer::new();
        let track = tracer.track("engine", "t");
        tracer.span(track, "bad", "test", Seconds::new(2.0), Seconds::new(1.0));
    }

    #[test]
    fn span_guard_closes_at_the_clock_time() {
        let tracer = Tracer::new();
        let clock = SimClock::at(Seconds::new(10.0));
        let track = tracer.track("engine", "t");
        {
            let _guard = tracer.span_guard(&clock, track, "work", "test");
            clock.advance(Seconds::new(2.5));
        }
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts, Seconds::new(10.0));
        assert_eq!(
            events[0].kind,
            EventKind::Span {
                end: Seconds::new(12.5)
            }
        );
    }

    #[test]
    fn absorb_merges_by_timestamp_then_rank_then_local_index() {
        let tracer = Tracer::new();
        let track = tracer.track("workers", "merged");
        let mut late = TraceSheet::new(1);
        late.instant(track, "r1-t2", "test", Seconds::new(2.0));
        late.instant(track, "r1-t5", "test", Seconds::new(5.0));
        let mut early = TraceSheet::new(0);
        early.instant(track, "r0-t2", "test", Seconds::new(2.0));
        early.instant(track, "r0-t9", "test", Seconds::new(9.0));
        // Absorb order must not matter: rank, not vec position, ties.
        tracer.absorb(vec![late, early]);
        let names: Vec<String> = tracer.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["r0-t2", "r1-t2", "r1-t5", "r0-t9"]);
        let seqs: Vec<u64> = tracer.snapshot().into_iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn absorb_appends_after_existing_events() {
        let tracer = Tracer::new();
        let track = tracer.track("workers", "merged");
        tracer.instant(track, "before", "test", Seconds::new(100.0));
        let mut sheet = TraceSheet::new(0);
        sheet.instant(track, "after", "test", Seconds::new(1.0));
        tracer.absorb(vec![sheet]);
        let events = tracer.snapshot();
        assert_eq!(events[0].name, "before");
        assert_eq!(events[1].name, "after");
        assert_eq!(events[1].seq, 1);
    }
}

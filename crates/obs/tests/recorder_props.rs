//! Property tests of the trace recorder and exporters:
//!
//! * span guards always balance — after any sequence of opens/closes the
//!   open-span gauge is zero and every recorded span has `end >= t`, with
//!   properly nested same-thread spans;
//! * ring eviction drops oldest-first (a contiguous prefix of sequence
//!   numbers) and never tears a span pair, because spans are recorded as
//!   one event on close;
//! * JSONL export round-trips through the parser for arbitrary events,
//!   including hostile names that need escaping;
//! * the JSONL parser never panics on untrusted text — arbitrary bytes,
//!   JSON-shaped noise, or a valid export with a damaged span — it
//!   returns `Ok` or `Err`.

use jbs_obs::{jsonl, Entity, EntityKind, Event, EventKind, ManualClock, Trace, TraceQuery};
use proptest::prelude::*;
use std::borrow::Cow;

/// Drive a trace with a script of open(true)/close(false) steps on one
/// thread, clock advancing each step; returns (snapshot, dropped,
/// open-after-script).
fn run_script(cap: usize, script: &[bool]) -> (Vec<Event>, u64, u64) {
    let clk = ManualClock::new();
    let trace = Trace::recording_with(cap, clk.clock());
    {
        let mut stack = Vec::new();
        for (i, &open) in script.iter().enumerate() {
            clk.advance(10);
            if open {
                stack.push(trace.span("work", Entity::op(i as u64), i as u64, 0));
            } else if let Some(g) = stack.pop() {
                drop(g);
            } else {
                trace.instant("tick", Entity::NONE, i as u64, 0);
            }
        }
        // Close whatever is still open, innermost first (stack drop order).
        while let Some(g) = stack.pop() {
            clk.advance(10);
            drop(g);
        }
    }
    let open = trace.open_spans();
    (trace.snapshot(), trace.dropped(), open)
}

/// JSON-shaped characters: structure, quotes and escapes, digits, the
/// letters of the schema's keywords, whitespace, and non-ASCII.
const JSONISH: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'n', 't', 'e', 's', 'q', '0', '1', '9', '-', '.',
    ' ', '\n', '\r', '\t', '\u{0}', 'é', '\u{1F600}',
];

fn jsonish(chars: &[usize]) -> String {
    chars.iter().filter_map(|&i| JSONISH.get(i)).collect()
}

proptest! {
    /// After any open/close script, the open gauge is zero, every span
    /// is well-formed, and same-thread spans are properly nested:
    /// any two are disjoint or one contains the other.
    #[test]
    fn spans_balance_and_nest(script in prop::collection::vec(any::<bool>(), 0..64)) {
        let (snapshot, _, open) = run_script(1024, &script);
        prop_assert_eq!(open, 0);
        let spans: Vec<Event> = snapshot
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        for s in &spans {
            prop_assert!(s.end >= s.t);
        }
        for (i, x) in spans.iter().enumerate() {
            for y in &spans[i + 1..] {
                let disjoint = x.end <= y.t || y.end <= x.t;
                let x_in_y = y.t <= x.t && x.end <= y.end;
                let y_in_x = x.t <= y.t && y.end <= x.end;
                prop_assert!(
                    disjoint || x_in_y || y_in_x,
                    "spans cross: [{},{}) vs [{},{})", x.t, x.end, y.t, y.end
                );
            }
        }
    }

    /// Eviction keeps exactly the newest `cap` events: sequence numbers
    /// in the snapshot are contiguous, end at the newest record, and the
    /// dropped counter accounts for the difference. Span records survive
    /// whole (both endpoints) or not at all — there is nothing to tear.
    #[test]
    fn eviction_drops_oldest_first(
        cap in 1usize..32,
        script in prop::collection::vec(any::<bool>(), 0..128),
    ) {
        let (evs, dropped, _) = run_script(cap, &script);
        prop_assert!(evs.len() <= cap);
        let total = evs.len() as u64 + dropped;
        for (i, e) in evs.iter().enumerate() {
            prop_assert_eq!(e.seq, dropped + i as u64);
            if e.kind == EventKind::Span {
                prop_assert!(e.end >= e.t, "surviving span is whole");
            }
        }
        if let Some(last) = evs.last() {
            prop_assert_eq!(last.seq + 1, total);
        }
    }

    /// JSONL round-trips arbitrary events exactly, names included.
    #[test]
    fn jsonl_round_trips(
        raw in prop::collection::vec(
            ((any::<u64>(), any::<u64>(), any::<bool>()),
             (any::<u64>(), 0u8..8, any::<u64>()),
             (prop::collection::vec(32u8..127, 0..24), any::<u64>(), any::<u64>())),
            0..20,
        )
    ) {
        let events: Vec<Event> = raw
            .into_iter()
            .enumerate()
            .map(|(i, ((t, dur, is_span), (thread, ek, id), (name, a, b)))| {
                let kind = if is_span { EventKind::Span } else { EventKind::Instant };
                let end = if is_span { t.saturating_add(dur) } else { t };
                let ekind = match ek {
                    0 => EntityKind::None,
                    1 => EntityKind::Peer,
                    2 => EntityKind::Conn,
                    3 => EntityKind::Mof,
                    4 => EntityKind::Op,
                    5 => EntityKind::Stream,
                    6 => EntityKind::Pool,
                    _ => EntityKind::Node,
                };
                let entity = if ekind == EntityKind::None {
                    Entity::NONE
                } else {
                    Entity { kind: ekind, id }
                };
                Event {
                    seq: i as u64,
                    t,
                    end,
                    kind,
                    thread,
                    entity,
                    name: Cow::Owned(String::from_utf8(name).unwrap()),
                    a,
                    b,
                }
            })
            .collect();
        let text = jsonl::to_jsonl(&events);
        let back = jsonl::parse_jsonl(&text).unwrap();
        prop_assert_eq!(back, events);
    }

    /// Names that need escaping (quotes, backslashes, control chars)
    /// still round-trip.
    #[test]
    fn jsonl_round_trips_hostile_names(
        chunks in prop::collection::vec(0u8..6, 1..24),
    ) {
        let name: String = chunks
            .iter()
            .map(|c| ["\"", "\\", "\n", "\t", "\r", "x"][*c as usize])
            .collect();
        let e = Event {
            seq: 0,
            t: 1,
            end: 1,
            kind: EventKind::Instant,
            thread: 0,
            entity: Entity::peer(1),
            name: Cow::Owned(name),
            a: 0,
            b: 0,
        };
        let text = jsonl::to_jsonl(std::slice::from_ref(&e));
        prop_assert_eq!(jsonl::parse_jsonl(&text).unwrap(), vec![e]);
    }

    /// TraceQuery's overlap machinery agrees with a brute-force sweep
    /// over nanosecond ticks on small inputs.
    #[test]
    fn overlap_matches_brute_force(
        reads in prop::collection::vec((0u64..64, 0u64..16), 0..6),
        xmits in prop::collection::vec((0u64..64, 0u64..16), 0..6),
    ) {
        let mut events = Vec::new();
        let mut seq = 0u64;
        let mut covered = |list: &[(u64, u64)], name: &'static str, events: &mut Vec<Event>| {
            let mut mask = [false; 96];
            for &(t, d) in list {
                events.push(Event {
                    seq, t, end: t + d, kind: EventKind::Span,
                    thread: 0, entity: Entity::NONE,
                    name: Cow::Borrowed(name), a: 0, b: 0,
                });
                seq += 1;
                for slot in mask.iter_mut().take((t + d) as usize).skip(t as usize) {
                    *slot = true;
                }
            }
            mask
        };
        let rmask = covered(&reads, "read", &mut events);
        let xmask = covered(&xmits, "xmit", &mut events);
        let q = TraceQuery::new(events);
        let expect_union = rmask.iter().filter(|&&b| b).count() as u64;
        let expect_overlap = rmask.iter().zip(&xmask).filter(|(&r, &x)| r && x).count() as u64;
        prop_assert_eq!(q.union_nanos("read"), expect_union);
        prop_assert_eq!(q.overlap_nanos("read", "xmit"), expect_overlap);
    }

    /// Parsing arbitrary text never panics: lossy-decoded random bytes
    /// and JSON-shaped noise both come back as `Ok` or `Err`.
    #[test]
    fn parse_jsonl_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        shaped in prop::collection::vec(0..JSONISH.len(), 0..256),
    ) {
        let lossy = String::from_utf8_lossy(&bytes).into_owned();
        for text in [lossy, jsonish(&shaped)] {
            prop_assert!(matches!(jsonl::parse_jsonl(&text), Ok(_) | Err(_)));
        }
    }

    /// A valid export with one span replaced by JSON-shaped noise (a
    /// torn or tampered trace file) parses to `Ok` or `Err`, never a
    /// panic — the damage lands inside numbers, keys and strings.
    #[test]
    fn parse_jsonl_never_panics_on_damaged_export(
        seq in any::<u64>(),
        t in any::<u64>(),
        a in any::<u64>(),
        from in 0usize..160,
        span in 0usize..16,
        patch in prop::collection::vec(0..JSONISH.len(), 0..12),
    ) {
        let e = Event {
            seq,
            t,
            end: t,
            kind: EventKind::Instant,
            thread: 0,
            entity: Entity::mof(seq),
            name: Cow::Borrowed("disk.read"),
            a,
            b: 0,
        };
        let mut text = jsonl::to_jsonl(&[e.clone(), e]);
        // The export is ASCII, so every byte offset is a char boundary.
        let lo = from.min(text.len());
        let hi = (lo + span).min(text.len());
        text.replace_range(lo..hi, &jsonish(&patch));
        prop_assert!(matches!(jsonl::parse_jsonl(&text), Ok(_) | Err(_)));
    }
}

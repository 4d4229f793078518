//! The exact identity of a computation, independent of the schedule that
//! built it.
//!
//! Many interleavings of a concurrent program seal to the same GEM
//! computation (same events, same enablement, same temporal order `⇒`),
//! discovered through different schedules. Every verdict `verify_system`
//! gives is a function of the sealed computation alone. [`canonical_key`]
//! serialises a computation so that two schedules get equal keys exactly
//! when they built the same computation. No sweep calls it: it is the
//! reference the sleep-set reduction and [`Computation::fingerprint`] are
//! tested against ("POR reaches every computation, each once"; "equal
//! computations hash equal").
//!
//! Event ids are insertion-ordered and therefore schedule-dependent, so the
//! key relabels events by the schedule-independent total order
//! `(element, seq)` (an event's position in its element's forced sequence)
//! before serialising classes, parameters, thread tags, enablement edges,
//! memberships, and the full temporal-order relation.
//!
//! Keys are only meaningful between computations over the same structure.

use gem_core::{Computation, EventId, NodeRef, Value};

/// A schedule-independent fingerprint of a computation: an exact,
/// length-prefixed numeric serialisation (not a hash — no collisions), so
/// two computations over the same structure get equal keys iff they are
/// the same computation up to event-id relabeling.
pub type CanonicalKey = Vec<u64>;

/// Packs a canonically-ranked edge into one key word.
fn pair(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// Serialises a parameter value exactly (variant tag + length-prefixed
/// content).
fn push_value(key: &mut Vec<u64>, v: &Value) {
    match v {
        Value::Unit => key.push(0),
        Value::Bool(b) => key.extend([1, u64::from(*b)]),
        Value::Int(i) => key.extend([2, *i as u64]),
        Value::Str(s) => {
            key.extend([3, s.len() as u64]);
            key.extend(s.bytes().map(u64::from));
        }
    }
}

/// Returns the [`CanonicalKey`] of `comp`.
///
/// Cost is `O(n²/64)` in the event count: the temporal-order relation is
/// serialised from the closure's bitset rows.
pub fn canonical_key(comp: &Computation) -> CanonicalKey {
    // Rank events by (element, seq): unique per event, and invariant under
    // the insertion order a particular schedule happened to produce.
    let n = comp.event_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| {
        let ev = &comp.events()[i];
        (ev.element().as_raw(), ev.seq())
    });
    let mut rank = vec![0u32; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r as u32;
    }

    let mut key: Vec<u64> = Vec::with_capacity(8 * n + 16);
    key.push(n as u64);
    for &i in &order {
        let ev = &comp.events()[i];
        key.push(u64::from(ev.class().as_raw()));
        key.push(ev.params().len() as u64);
        for p in ev.params() {
            push_value(&mut key, p);
        }
        key.push(ev.threads().len() as u64);
        for t in ev.threads() {
            key.push(pair(t.thread_type().as_raw(), t.instance()));
        }
    }

    let mut enables: Vec<u64> = comp
        .enable_edges()
        .map(|(from, to)| pair(rank[from.index()], rank[to.index()]))
        .collect();
    enables.sort_unstable();
    key.push(enables.len() as u64);
    key.append(&mut enables);

    // The temporal order folds in explicit precedences that are not
    // recoverable from enablement + element order alone.
    let mut pairs: Vec<u64> = Vec::new();
    for &i in &order {
        let a = rank[i];
        for s in comp
            .closure()
            .successors(EventId::from_raw(i as u32))
            .iter()
        {
            pairs.push(pair(a, rank[s]));
        }
    }
    pairs.sort_unstable();
    key.push(pairs.len() as u64);
    key.append(&mut pairs);

    let mut members: Vec<(u32, u32, u64, u32)> = comp
        .memberships()
        .iter()
        .map(|m| {
            let (tag, raw) = match m.member {
                NodeRef::Element(el) => (0u64, el.as_raw()),
                NodeRef::Group(g) => (1u64, g.as_raw()),
            };
            (rank[m.event.index()], m.group.as_raw(), tag, raw)
        })
        .collect();
    members.sort_unstable();
    key.push(members.len() as u64);
    for (ev, group, tag, raw) in members {
        key.extend([pair(ev, group), (tag << 32) | u64::from(raw)]);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::{ComputationBuilder, Structure};

    fn two_element_structure() -> Structure {
        let mut s = Structure::new();
        let cls = s.add_class("Step", &["n"]).unwrap();
        let a = s.add_element("A", &[cls]).unwrap();
        let b = s.add_element("B", &[cls]).unwrap();
        s.add_group("G", &[a.into(), b.into()]).unwrap();
        s
    }

    /// Builds A0, B0, A1 with `enable(A0, B0)` in two different insertion
    /// orders and checks the keys collide.
    #[test]
    fn schedule_order_does_not_change_key() {
        let s = std::sync::Arc::new(two_element_structure());
        let cls = s.class("Step").unwrap();
        let (ea, eb) = (s.element("A").unwrap(), s.element("B").unwrap());

        let mut b1 = ComputationBuilder::new(s.clone());
        let a0 = b1.add_event(ea, cls, vec![Value::Int(1)]).unwrap();
        let b0 = b1.add_event(eb, cls, vec![Value::Int(2)]).unwrap();
        let _a1 = b1.add_event(ea, cls, vec![Value::Int(3)]).unwrap();
        b1.enable(a0, b0).unwrap();
        let c1 = b1.seal().unwrap();

        let mut b2 = ComputationBuilder::new(s.clone());
        let a0 = b2.add_event(ea, cls, vec![Value::Int(1)]).unwrap();
        let a1 = b2.add_event(ea, cls, vec![Value::Int(3)]).unwrap();
        let b0 = b2.add_event(eb, cls, vec![Value::Int(2)]).unwrap();
        let _ = a1;
        b2.enable(a0, b0).unwrap();
        let c2 = b2.seal().unwrap();

        assert_eq!(canonical_key(&c1), canonical_key(&c2));
    }

    #[test]
    fn different_data_or_edges_change_key() {
        let s = std::sync::Arc::new(two_element_structure());
        let cls = s.class("Step").unwrap();
        let (ea, eb) = (s.element("A").unwrap(), s.element("B").unwrap());

        let build = |param: Value, with_edge: bool, with_prec: bool| {
            let mut b = ComputationBuilder::new(s.clone());
            let a0 = b.add_event(ea, cls, vec![param]).unwrap();
            let b0 = b.add_event(eb, cls, vec![Value::Int(0)]).unwrap();
            if with_edge {
                b.enable(a0, b0).unwrap();
            }
            if with_prec {
                b.add_precedence(a0, b0).unwrap();
            }
            b.seal().unwrap()
        };

        let base = canonical_key(&build(Value::Int(1), false, false));
        assert_ne!(
            base,
            canonical_key(&build(Value::Int(2), false, false)),
            "params"
        );
        assert_ne!(
            base,
            canonical_key(&build(Value::Str("1".into()), false, false)),
            "value type"
        );
        assert_ne!(
            base,
            canonical_key(&build(Value::Int(1), true, false)),
            "enables"
        );
        // A bare precedence leaves events and enablement untouched but
        // tightens the temporal order — the key must see it.
        assert_ne!(
            base,
            canonical_key(&build(Value::Int(1), false, true)),
            "precedence"
        );
    }
}

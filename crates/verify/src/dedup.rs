//! Sound computation-level deduplication for verification sweeps.
//!
//! Many interleavings of a concurrent program are *trace-equivalent*: they
//! seal to the same GEM computation (same events, same enablement, same
//! temporal order `⇒`), merely discovered through a different schedule. Every
//! property checked by `verify_system` and `eventually_on_all_runs` — GEM
//! legality, projection, restriction formulas — is a function of the sealed
//! computation alone, so trace-equivalent runs always receive the same
//! verdict. [`canonical_key`] produces a schedule-independent fingerprint of
//! a computation; drivers cache the verdict per key and replay it on repeat
//! sightings instead of re-projecting and re-checking.
//!
//! This is sound where `Explorer::prune_control_cycles` is not: pruning
//! skips *runs*, changing `runs`/failure indices and potentially hiding
//! failures behind a coarse control key, while deduplication still
//! enumerates every run and only skips redundant *checking* work. The
//! outcome is byte-identical with deduplication on or off.
//!
//! Event ids are insertion-ordered and therefore schedule-dependent, so the
//! key relabels events by the schedule-independent total order
//! `(element, seq)` (an event's position in its element's forced sequence)
//! before serialising classes, parameters, thread tags, enablement edges,
//! memberships, and the full temporal-order relation.
//!
//! Keys are only meaningful between computations over the same structure;
//! the per-sweep caches in this crate never mix structures.

use gem_core::{Computation, ElementId, EventId, NodeRef, Value};

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
/// content, recursing through pairs).
fn push_value(key: &mut Vec<u64>, v: &Value) {
    match v {
        Value::Unit => key.push(0),
        Value::Bool(b) => key.extend([1, u64::from(*b)]),
        Value::Int(i) => key.extend([2, *i as u64]),
        Value::Str(s) => {
            key.extend([3, s.len() as u64]);
            key.extend(s.bytes().map(u64::from));
        }
        Value::Pair(a, b) => {
            key.push(4);
            push_value(key, a);
            push_value(key, b);
        }
    }
}

/// Returns the [`CanonicalKey`] of `comp`.
///
/// Cost is `O(n²/64)` in the event count (the temporal-order relation is
/// serialised from the closure's bitset rows), far below one projection +
/// restriction check — the work a cache hit saves.
///
/// No sweep calls it: they key their caches by
/// [`Computation::fingerprint`] plus [`confirm_key`]. It stays as the reference those keys
/// are tested against.
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

/// Returns the cheap exact *confirmation key* of `comp`: the
/// [`canonical_key`] serialisation with the O(n²) temporal-order section
/// replaced by the computation's *generators* — the sorted precedence
/// pairs ([`Computation::precedence_edges`]). The temporal order is, by
/// construction, the transitive closure of the enable relation, the
/// per-element occurrence chains, and the precedence pairs, all of which
/// this key serialises exactly; so **equal confirmation keys imply equal
/// canonical keys** and therefore identical verdicts. (The converse can
/// fail only when a *redundant* precedence edge restates an ordering the
/// closure already implies — then two canonically-equal computations get
/// distinct confirmation keys and a dedup cache merely re-checks one of
/// them, which costs time but never changes an outcome. The simulators
/// in `gem-lang` emit no precedence edges at all, so for their output
/// the two keys induce the same equivalence classes.)
///
/// Cost is O(n + m) in the event and edge counts: the `(element, seq)`
/// ranking falls out of concatenating the per-element chains in element
/// order, with no sort and no closure walk. Paired with
/// [`Computation::fingerprint`] as a bucket index, this is what retires
/// `phase.canonical_key` from the per-run dedup budget.
pub fn confirm_key(comp: &Computation) -> CanonicalKey {
    let n = comp.event_count();
    // Concatenating the element chains in element-id order enumerates
    // events exactly in (element, seq) order — the same ranking
    // `canonical_key` obtains by sorting.
    let mut rank = vec![0u32; n];
    let mut order: Vec<EventId> = Vec::with_capacity(n);
    for el in 0..comp.structure().element_count() {
        for &e in comp.events_at(ElementId::from_raw(el as u32)) {
            rank[e.index()] = order.len() as u32;
            order.push(e);
        }
    }

    let mut key: Vec<u64> = Vec::with_capacity(6 * n + 16);
    key.push(n as u64);
    for &e in &order {
        let ev = comp.event(e);
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

    let mut precedences: Vec<u64> = comp
        .precedence_edges()
        .iter()
        .map(|&(before, after)| pair(rank[before.index()], rank[after.index()]))
        .collect();
    precedences.sort_unstable();
    key.push(precedences.len() as u64);
    key.append(&mut precedences);

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

    #[test]
    fn confirm_key_is_schedule_independent() {
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
        let _a1 = b2.add_event(ea, cls, vec![Value::Int(3)]).unwrap();
        let b0 = b2.add_event(eb, cls, vec![Value::Int(2)]).unwrap();
        b2.enable(a0, b0).unwrap();
        let c2 = b2.seal().unwrap();

        assert_eq!(confirm_key(&c1), confirm_key(&c2));
        assert_eq!(c1.fingerprint(), c2.fingerprint());
    }

    #[test]
    fn confirm_key_separates_what_canonical_key_separates() {
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

        let base = confirm_key(&build(Value::Int(1), false, false));
        assert_ne!(base, confirm_key(&build(Value::Int(2), false, false)));
        assert_ne!(base, confirm_key(&build(Value::Int(1), true, false)));
        // The confirmation key sees a bare precedence through the
        // generator list where the canonical key sees it through the
        // closure.
        assert_ne!(base, confirm_key(&build(Value::Int(1), false, true)));
        assert_ne!(
            confirm_key(&build(Value::Int(1), true, false)),
            confirm_key(&build(Value::Int(1), false, true)),
            "enable vs precedence over the same endpoints"
        );
    }

    /// The load-bearing soundness fact for fingerprint + confirm dedup:
    /// on computations without redundant precedence edges (everything the
    /// simulators produce), confirm-key equality coincides with
    /// canonical-key equality.
    #[test]
    fn confirm_classes_match_canonical_classes_on_simulator_like_output() {
        let s = std::sync::Arc::new(two_element_structure());
        let cls = s.class("Step").unwrap();
        let (ea, eb) = (s.element("A").unwrap(), s.element("B").unwrap());
        // A small family of builder programs: every pair of distinct
        // computations must disagree on both keys; identical rebuilds
        // must agree on both.
        let builds: Vec<Computation> = (0..4)
            .map(|variant| {
                let mut b = ComputationBuilder::new(s.clone());
                let a0 = b.add_event(ea, cls, vec![Value::Int(variant)]).unwrap();
                let b0 = b.add_event(eb, cls, vec![Value::Int(1)]).unwrap();
                if variant % 2 == 0 {
                    b.enable(a0, b0).unwrap();
                }
                b.seal().unwrap()
            })
            .collect();
        for (i, x) in builds.iter().enumerate() {
            for y in &builds[i..] {
                assert_eq!(
                    canonical_key(x) == canonical_key(y),
                    confirm_key(x) == confirm_key(y),
                );
            }
        }
    }
}

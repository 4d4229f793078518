//! Static structure of a GEM specification: event classes, elements,
//! groups, ports, and the scope (access) rules they induce.
//!
//! Elements model loci of forced sequential activity (§4): every event
//! occurs at exactly one element, and all events at an element are totally
//! ordered. Groups cluster elements and other groups, modelling scope; an
//! enable edge from an event at `EL1` to an event at `EL2` is legal only if
//! `EL1` has *access* to `EL2`, or the target event is a *port* of a group
//! `EL1` has access to (footnote 4 of the paper):
//!
//! ```text
//! access(x, y)      ≡ ∃G [ y ∈ G ∧ contained(x, G) ]
//! contained(x, G)   ≡ x ∈ G ∨ ∃G' [ x ∈ G' ∧ contained(G', G) ]
//! ```
//!
//! where `∈` is *direct* membership and all top-level items are members of
//! an implicit surrounding root group. Groups may be disjoint, hierarchical,
//! or overlapping (an element may belong to several groups, as `EL3`/`EL4`
//! do in the paper's §4 example).

use std::collections::HashMap;
use std::fmt;

use crate::{ClassId, ElementId, GroupId};

/// A member of a group: either an element or a nested group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeRef {
    /// An element member.
    Element(ElementId),
    /// A nested group member.
    Group(GroupId),
}

impl From<ElementId> for NodeRef {
    fn from(id: ElementId) -> Self {
        NodeRef::Element(id)
    }
}

impl From<GroupId> for NodeRef {
    fn from(id: GroupId) -> Self {
        NodeRef::Group(id)
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Element(e) => write!(f, "{e}"),
            NodeRef::Group(g) => write!(f, "{g}"),
        }
    }
}

/// Description of an event class: its name and parameter names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassInfo {
    name: String,
    params: Vec<String>,
}

impl ClassInfo {
    /// The class name, e.g. `"Assign"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared parameter names, in positional order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Number of parameters events of this class carry.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Position of the parameter called `name`, if declared.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }
}

/// Description of an element: its name and the event classes that may
/// occur at it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElementInfo {
    name: String,
    classes: Vec<ClassId>,
}

impl ElementInfo {
    /// The element name, e.g. `"Var"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Event classes that may occur at this element.
    pub fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    /// True if events of `class` may occur at this element.
    pub fn allows(&self, class: ClassId) -> bool {
        self.classes.contains(&class)
    }
}

/// Description of a group: name, direct members, and port event classes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GroupInfo {
    name: String,
    members: Vec<NodeRef>,
    ports: Vec<(ElementId, ClassId)>,
}

impl GroupInfo {
    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direct members (elements and nested groups).
    pub fn members(&self) -> &[NodeRef] {
        &self.members
    }

    /// Port designations: events of `ClassId` at `ElementId` are access
    /// holes into this group.
    pub fn ports(&self) -> &[(ElementId, ClassId)] {
        &self.ports
    }

    /// True if `node` is a *direct* member of this group.
    pub fn has_member(&self, node: NodeRef) -> bool {
        self.members.contains(&node)
    }

    /// True if events of `class` at `element` are ports of this group.
    pub fn has_port(&self, element: ElementId, class: ClassId) -> bool {
        self.ports.contains(&(element, class))
    }
}

/// Errors arising while declaring a [`Structure`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StructureError {
    /// A class was redeclared with different parameters.
    ClassConflict(String),
    /// An element or group name was declared twice.
    DuplicateName(String),
    /// A referenced id does not exist in this structure.
    UnknownId(String),
    /// Adding a membership edge would make `contained` cyclic.
    CyclicGroups(String),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::ClassConflict(n) => {
                write!(f, "event class {n:?} redeclared with different parameters")
            }
            StructureError::DuplicateName(n) => write!(f, "name {n:?} declared twice"),
            StructureError::UnknownId(n) => write!(f, "unknown id {n}"),
            StructureError::CyclicGroups(n) => {
                write!(f, "group membership cycle involving {n}")
            }
        }
    }
}

impl std::error::Error for StructureError {}

/// The static structure of a GEM specification: classes, elements, groups,
/// ports, and the access relation between them.
///
/// A `Structure` is built once (usually by the `gem-spec` instantiation
/// layer or by a language substrate) and then shared by every computation
/// over it.
///
/// # Examples
///
/// Modelling the paper's §4 example of three processes sharing a resource:
///
/// ```
/// use gem_core::Structure;
/// let mut s = Structure::new();
/// let touch = s.add_class("Touch", &[]).unwrap();
/// let els: Vec<_> = (1..=6)
///     .map(|i| s.add_element(format!("EL{i}"), &[touch]).unwrap())
///     .collect();
/// let _g1 = s.add_group("G1", &[els[1].into(), els[2].into()]).unwrap();
/// let _g2 = s.add_group("G2", &[els[3].into(), els[4].into()]).unwrap();
/// let _g3 = s.add_group("G3", &[els[2].into(), els[3].into()]).unwrap();
/// let _g4 = s.add_group("G4", &[els[0].into()]).unwrap();
/// // EL2 may enable EL3 (same group G1), and anything may enable EL6 (global):
/// assert!(s.access(els[1], els[2].into()));
/// assert!(s.access(els[1], els[5].into()));
/// // ... but EL1 may not enable EL2:
/// assert!(!s.access(els[0], els[1].into()));
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Structure {
    classes: Vec<ClassInfo>,
    elements: Vec<ElementInfo>,
    groups: Vec<GroupInfo>,
    class_by_name: HashMap<String, ClassId>,
    element_by_name: HashMap<String, ElementId>,
    group_by_name: HashMap<String, GroupId>,
    /// Direct parents of each element (groups it is a direct member of).
    element_parents: Vec<Vec<GroupId>>,
    /// Direct parents of each group.
    group_parents: Vec<Vec<GroupId>>,
}

impl Structure {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares (or re-uses) an event class.
    ///
    /// Classes are global and identified by name; redeclaring a class with
    /// the same parameter list returns the existing id.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::ClassConflict`] if the class exists with a
    /// different parameter list.
    pub fn add_class(
        &mut self,
        name: impl Into<String>,
        params: &[&str],
    ) -> Result<ClassId, StructureError> {
        let name = name.into();
        if let Some(&id) = self.class_by_name.get(&name) {
            let existing = &self.classes[id.index()];
            if existing.params.len() == params.len()
                && existing.params.iter().zip(params).all(|(a, b)| a == b)
            {
                return Ok(id);
            }
            return Err(StructureError::ClassConflict(name));
        }
        let id = ClassId::from_raw(self.classes.len() as u32);
        self.classes.push(ClassInfo {
            name: name.clone(),
            params: params.iter().map(|s| (*s).to_owned()).collect(),
        });
        self.class_by_name.insert(name, id);
        Ok(id)
    }

    /// Declares an element allowing the given event classes.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::DuplicateName`] if an element with this
    /// name exists.
    pub fn add_element(
        &mut self,
        name: impl Into<String>,
        classes: &[ClassId],
    ) -> Result<ElementId, StructureError> {
        let name = name.into();
        if self.element_by_name.contains_key(&name) {
            return Err(StructureError::DuplicateName(name));
        }
        let id = ElementId::from_raw(self.elements.len() as u32);
        self.elements.push(ElementInfo {
            name: name.clone(),
            classes: classes.to_vec(),
        });
        self.element_by_name.insert(name, id);
        self.element_parents.push(Vec::new());
        Ok(id)
    }

    /// Adds an additional allowed class to an existing element.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::UnknownId`] if `element` or `class` is not
    /// from this structure.
    pub fn allow_class(
        &mut self,
        element: ElementId,
        class: ClassId,
    ) -> Result<(), StructureError> {
        if class.index() >= self.classes.len() {
            return Err(StructureError::UnknownId(class.to_string()));
        }
        let info = self
            .elements
            .get_mut(element.index())
            .ok_or_else(|| StructureError::UnknownId(element.to_string()))?;
        if !info.classes.contains(&class) {
            info.classes.push(class);
        }
        Ok(())
    }

    /// Declares a group with the given direct members.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::DuplicateName`] for a repeated name,
    /// [`StructureError::UnknownId`] for an unknown member, and
    /// [`StructureError::CyclicGroups`] if membership would become cyclic.
    pub fn add_group(
        &mut self,
        name: impl Into<String>,
        members: &[NodeRef],
    ) -> Result<GroupId, StructureError> {
        let name = name.into();
        if self.group_by_name.contains_key(&name) {
            return Err(StructureError::DuplicateName(name));
        }
        let id = GroupId::from_raw(self.groups.len() as u32);
        self.groups.push(GroupInfo {
            name: name.clone(),
            members: Vec::new(),
            ports: Vec::new(),
        });
        self.group_by_name.insert(name, id);
        self.group_parents.push(Vec::new());
        for &m in members {
            self.add_member(id, m)?;
        }
        Ok(id)
    }

    /// Adds `member` as a direct member of `group`.
    ///
    /// Groups grow monotonically (§5 footnote: group structure changes are
    /// themselves events; this reproduction keeps structures static per
    /// computation, but members may be added while building).
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::UnknownId`] for unknown ids and
    /// [`StructureError::CyclicGroups`] if the edge closes a membership
    /// cycle.
    pub fn add_member(&mut self, group: GroupId, member: NodeRef) -> Result<(), StructureError> {
        if group.index() >= self.groups.len() {
            return Err(StructureError::UnknownId(group.to_string()));
        }
        match member {
            NodeRef::Element(e) => {
                if e.index() >= self.elements.len() {
                    return Err(StructureError::UnknownId(e.to_string()));
                }
                if !self.groups[group.index()].members.contains(&member) {
                    self.groups[group.index()].members.push(member);
                    self.element_parents[e.index()].push(group);
                }
            }
            NodeRef::Group(g) => {
                if g.index() >= self.groups.len() {
                    return Err(StructureError::UnknownId(g.to_string()));
                }
                if g == group || self.group_contained_in(group, g) {
                    return Err(StructureError::CyclicGroups(g.to_string()));
                }
                if !self.groups[group.index()].members.contains(&member) {
                    self.groups[group.index()].members.push(member);
                    self.group_parents[g.index()].push(group);
                }
            }
        }
        Ok(())
    }

    /// Designates events of `class` at `element` as ports of `group`.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::UnknownId`] for ids not from this
    /// structure.
    pub fn add_port(
        &mut self,
        group: GroupId,
        element: ElementId,
        class: ClassId,
    ) -> Result<(), StructureError> {
        if element.index() >= self.elements.len() {
            return Err(StructureError::UnknownId(element.to_string()));
        }
        if class.index() >= self.classes.len() {
            return Err(StructureError::UnknownId(class.to_string()));
        }
        let info = self
            .groups
            .get_mut(group.index())
            .ok_or_else(|| StructureError::UnknownId(group.to_string()))?;
        if !info.ports.contains(&(element, class)) {
            info.ports.push((element, class));
        }
        Ok(())
    }

    /// Number of declared event classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of declared elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Number of declared groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up an element by name.
    pub fn element(&self, name: &str) -> Option<ElementId> {
        self.element_by_name.get(name).copied()
    }

    /// Looks up a group by name.
    pub fn group(&self, name: &str) -> Option<GroupId> {
        self.group_by_name.get(name).copied()
    }

    /// Class description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this structure.
    pub fn class_info(&self, id: ClassId) -> &ClassInfo {
        &self.classes[id.index()]
    }

    /// Element description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this structure.
    pub fn element_info(&self, id: ElementId) -> &ElementInfo {
        &self.elements[id.index()]
    }

    /// Group description for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this structure.
    pub fn group_info(&self, id: GroupId) -> &GroupInfo {
        &self.groups[id.index()]
    }

    /// Iterates over all element ids.
    pub fn elements(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.elements.len()).map(|i| ElementId::from_raw(i as u32))
    }

    /// Iterates over all group ids.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.groups.len()).map(|i| GroupId::from_raw(i as u32))
    }

    /// Iterates over all class ids.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len()).map(|i| ClassId::from_raw(i as u32))
    }

    /// Direct parent groups of `node`.
    pub fn parents(&self, node: NodeRef) -> &[GroupId] {
        match node {
            NodeRef::Element(e) => &self.element_parents[e.index()],
            NodeRef::Group(g) => &self.group_parents[g.index()],
        }
    }

    /// True if `node` is a direct member of no group (hence a member of the
    /// implicit surrounding root group — "global").
    pub fn is_top_level(&self, node: NodeRef) -> bool {
        self.parents(node).is_empty()
    }

    fn group_contained_in(&self, inner: GroupId, outer: GroupId) -> bool {
        if inner == outer {
            return true;
        }
        self.group_parents[inner.index()]
            .iter()
            .any(|&p| self.group_contained_in(p, outer))
    }

    /// The paper's `contained(x, G)`: `x ∈ G` directly, or `x` is a direct
    /// member of some group `G'` with `contained(G', G)`.
    pub fn contained(&self, node: NodeRef, group: GroupId) -> bool {
        self.parents(node)
            .iter()
            .any(|&p| p == group || self.group_contained_in(p, group))
    }

    /// The paper's `access(x, y)`: there is a group `G` (including the
    /// implicit root) such that `y ∈ G` and `contained(x, G)`.
    ///
    /// Because everything is contained in the implicit root, a top-level
    /// `y` is accessible from every `x` ("y is global to x").
    pub fn access(&self, from: ElementId, to: NodeRef) -> bool {
        if self.is_top_level(to) {
            return true;
        }
        self.parents(to)
            .iter()
            .any(|&g| self.contained(NodeRef::Element(from), g))
    }

    /// True if an event at `from` may enable an event of `to_class` at
    /// `to_element` under the group scope rules (footnote 4):
    /// `access(EL1, EL2) ∨ ∃G [ e2 is a port of G ∧ access(EL1, G) ]`.
    /// False when either element is not one this structure holds.
    pub fn may_enable(&self, from: ElementId, to_element: ElementId, to_class: ClassId) -> bool {
        let held = self.element_count();
        if from.index() >= held || to_element.index() >= held {
            return false;
        }
        if self.access(from, NodeRef::Element(to_element)) {
            return true;
        }
        self.groups().any(|g| {
            self.group_info(g).has_port(to_element, to_class)
                && (self.is_top_level(NodeRef::Group(g))
                    || self
                        .parents(NodeRef::Group(g))
                        .iter()
                        .any(|&pg| self.contained(NodeRef::Element(from), pg)))
        })
    }
}

/// [`Structure::may_enable`] memoised by `(from element, to element,
/// class)`: a dense table, filled as triples are first asked, so the
/// group-scope walk runs once per triple instead of once per edge. It
/// answers for the structure it was sized for; an id outside that
/// structure, or a structure too large for the table, is asked directly.
#[derive(Clone, Debug, Default)]
pub struct MayEnableMemo {
    elements: usize,
    classes: usize,
    /// Per triple: 0 not asked yet, 1 no, 2 yes.
    table: Vec<u8>,
}

impl MayEnableMemo {
    /// Largest table kept, in triples.
    const MAX_TRIPLES: usize = 1 << 20;

    /// An empty memo sized for `s`.
    pub fn new(s: &Structure) -> Self {
        let (elements, classes) = (s.element_count(), s.class_count());
        let triples = elements.saturating_mul(elements).saturating_mul(classes);
        Self {
            elements,
            classes,
            table: if triples <= Self::MAX_TRIPLES {
                vec![0; triples]
            } else {
                Vec::new()
            },
        }
    }

    /// `s.may_enable(from, to_element, to_class)`, for the `s` this memo
    /// was sized for.
    pub fn may_enable(
        &mut self,
        s: &Structure,
        from: ElementId,
        to_element: ElementId,
        to_class: ClassId,
    ) -> bool {
        let (n_el, n_cl) = (self.elements, self.classes);
        let slot = (from.index() < n_el && to_element.index() < n_el && to_class.index() < n_cl)
            .then(|| (from.index() * n_el + to_element.index()) * n_cl + to_class.index())
            .and_then(|i| self.table.get_mut(i));
        match slot {
            Some(known) if *known != 0 => *known == 2,
            Some(unknown) => {
                let answer = s.may_enable(from, to_element, to_class);
                *unknown = 1 + u8::from(answer);
                answer
            }
            None => s.may_enable(from, to_element, to_class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> (Structure, Vec<ElementId>) {
        let mut s = Structure::new();
        let touch = s.add_class("Touch", &[]).unwrap();
        let els: Vec<_> = (1..=6)
            .map(|i| s.add_element(format!("EL{i}"), &[touch]).unwrap())
            .collect();
        s.add_group("G1", &[els[1].into(), els[2].into()]).unwrap();
        s.add_group("G2", &[els[3].into(), els[4].into()]).unwrap();
        s.add_group("G3", &[els[2].into(), els[3].into()]).unwrap();
        s.add_group("G4", &[els[0].into()]).unwrap();
        (s, els)
    }

    #[test]
    fn may_enable_is_false_for_an_element_not_held() {
        let (s, els) = paper_example();
        let touch = s.class("Touch").unwrap();
        let stranger = ElementId::from_raw(99);
        let mut memo = MayEnableMemo::new(&s);
        for (from, to) in [(stranger, els[5]), (els[0], stranger), (stranger, stranger)] {
            assert!(!s.may_enable(from, to, touch), "{from:?} -> {to:?}");
            assert!(!memo.may_enable(&s, from, to, touch), "{from:?} -> {to:?}");
        }
    }

    /// Reproduces the full allowed-communication table of §4.
    #[test]
    fn section4_access_table() {
        let (s, els) = paper_example();
        // May-enable table from the paper, 1-indexed: EL1→{1,6}, EL2→{2,3,6},
        // EL3→{2,3,4,6}, EL4→{3,4,5,6}, EL5→{4,5,6}, EL6→{6}.
        let table: [&[usize]; 6] = [
            &[1, 6],
            &[2, 3, 6],
            &[2, 3, 4, 6],
            &[3, 4, 5, 6],
            &[4, 5, 6],
            &[6],
        ];
        for (i, allowed) in table.iter().enumerate() {
            for j in 1..=6 {
                let expect = allowed.contains(&j);
                assert_eq!(
                    s.access(els[i], els[j - 1].into()),
                    expect,
                    "access(EL{}, EL{j}) should be {expect}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn memoised_may_enable_matches_the_structure() {
        let (s, els) = paper_example();
        let touch = s.class("Touch").unwrap();
        let mut memo = MayEnableMemo::new(&s);
        // Twice over: the first round fills the table, the second reads it.
        for _ in 0..2 {
            for &a in &els {
                for &b in &els {
                    assert_eq!(
                        memo.may_enable(&s, a, b, touch),
                        s.may_enable(a, b, touch),
                        "{a:?} -> {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ports_open_access_holes() {
        // Abstraction = GROUP(Datum, Oper) PORTS(Oper.Start)
        let mut s = Structure::new();
        let start = s.add_class("Start", &[]).unwrap();
        let read = s.add_class("Read", &[]).unwrap();
        let datum = s.add_element("Datum", &[read]).unwrap();
        let oper = s.add_element("Oper", &[start, read]).unwrap();
        let outside = s.add_element("Client", &[start]).unwrap();
        let abstraction = s
            .add_group("Abstraction", &[datum.into(), oper.into()])
            .unwrap();
        s.add_port(abstraction, oper, start).unwrap();

        // Client may enable the port event but not internal events.
        assert!(s.may_enable(outside, oper, start));
        assert!(!s.may_enable(outside, oper, read));
        assert!(!s.may_enable(outside, datum, read));
        // Internal elements access each other freely.
        assert!(s.may_enable(oper, datum, read));
        assert!(s.may_enable(datum, oper, read));
    }

    #[test]
    fn nested_groups_and_containment() {
        let mut s = Structure::new();
        let c = s.add_class("C", &[]).unwrap();
        let inner_el = s.add_element("Inner", &[c]).unwrap();
        let outer_el = s.add_element("Outer", &[c]).unwrap();
        let inner = s.add_group("GInner", &[inner_el.into()]).unwrap();
        let outer = s
            .add_group("GOuter", &[NodeRef::Group(inner), outer_el.into()])
            .unwrap();
        assert!(s.contained(NodeRef::Element(inner_el), inner));
        assert!(s.contained(NodeRef::Element(inner_el), outer));
        assert!(s.contained(NodeRef::Group(inner), outer));
        assert!(!s.contained(NodeRef::Element(outer_el), inner));
        // Outer element cannot reach inside the inner group...
        assert!(!s.access(outer_el, inner_el.into()));
        // ...but the inner element can reach its sibling via GOuter.
        assert!(s.access(inner_el, outer_el.into()));
    }

    #[test]
    fn top_level_is_global() {
        let (s, els) = paper_example();
        // EL6 is top-level: everyone accesses it; it accesses only itself
        // among grouped elements.
        for e in &els {
            assert!(s.access(*e, els[5].into()));
        }
        assert!(!s.access(els[5], els[0].into()));
        assert!(s.access(els[5], els[5].into()));
    }

    #[test]
    fn class_reuse_and_conflict() {
        let mut s = Structure::new();
        let a = s.add_class("Assign", &["newval"]).unwrap();
        let a2 = s.add_class("Assign", &["newval"]).unwrap();
        assert_eq!(a, a2);
        assert!(matches!(
            s.add_class("Assign", &["other"]),
            Err(StructureError::ClassConflict(_))
        ));
    }

    #[test]
    fn duplicate_element_name_rejected() {
        let mut s = Structure::new();
        s.add_element("Var", &[]).unwrap();
        assert!(matches!(
            s.add_element("Var", &[]),
            Err(StructureError::DuplicateName(_))
        ));
    }

    #[test]
    fn group_cycles_rejected() {
        let mut s = Structure::new();
        let g1 = s.add_group("A", &[]).unwrap();
        let g2 = s.add_group("B", &[NodeRef::Group(g1)]).unwrap();
        assert!(matches!(
            s.add_member(g1, NodeRef::Group(g2)),
            Err(StructureError::CyclicGroups(_))
        ));
        assert!(matches!(
            s.add_member(g1, NodeRef::Group(g1)),
            Err(StructureError::CyclicGroups(_))
        ));
    }

    #[test]
    fn allow_class_extends_element() {
        let mut s = Structure::new();
        let a = s.add_class("A", &[]).unwrap();
        let b = s.add_class("B", &[]).unwrap();
        let el = s.add_element("E", &[a]).unwrap();
        assert!(!s.element_info(el).allows(b));
        s.allow_class(el, b).unwrap();
        assert!(s.element_info(el).allows(b));
        // Idempotent.
        s.allow_class(el, b).unwrap();
        assert_eq!(s.element_info(el).classes().len(), 2);
    }

    #[test]
    fn unknown_ids_rejected_by_mutators() {
        let mut s = Structure::new();
        let c = s.add_class("C", &[]).unwrap();
        let el = s.add_element("E", &[c]).unwrap();
        let g = s.add_group("G", &[]).unwrap();
        assert!(matches!(
            s.allow_class(ElementId::from_raw(9), c),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.allow_class(el, ClassId::from_raw(9)),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.add_member(GroupId::from_raw(9), el.into()),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.add_member(g, ElementId::from_raw(9).into()),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.add_port(g, ElementId::from_raw(9), c),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.add_port(g, el, ClassId::from_raw(9)),
            Err(StructureError::UnknownId(_))
        ));
        assert!(matches!(
            s.add_port(GroupId::from_raw(9), el, c),
            Err(StructureError::UnknownId(_))
        ));
        // Error display is meaningful.
        assert!(StructureError::UnknownId("EL9".into())
            .to_string()
            .contains("unknown id"));
    }

    #[test]
    fn duplicate_membership_and_port_idempotent() {
        let mut s = Structure::new();
        let c = s.add_class("C", &[]).unwrap();
        let el = s.add_element("E", &[c]).unwrap();
        let g = s.add_group("G", &[el.into()]).unwrap();
        s.add_member(g, el.into()).unwrap();
        assert_eq!(s.group_info(g).members().len(), 1);
        s.add_port(g, el, c).unwrap();
        s.add_port(g, el, c).unwrap();
        assert_eq!(s.group_info(g).ports().len(), 1);
    }

    #[test]
    fn lookups_by_name() {
        let (s, els) = paper_example();
        assert_eq!(s.element("EL1"), Some(els[0]));
        assert_eq!(s.element("ELx"), None);
        assert!(s.group("G3").is_some());
        assert!(s.class("Touch").is_some());
        assert_eq!(s.element_count(), 6);
        assert_eq!(s.group_count(), 4);
        assert_eq!(s.class_count(), 1);
    }

    #[test]
    fn class_param_lookup() {
        let mut s = Structure::new();
        let a = s.add_class("Assign", &["loc", "newval"]).unwrap();
        let info = s.class_info(a);
        assert_eq!(info.arity(), 2);
        assert_eq!(info.param_index("newval"), Some(1));
        assert_eq!(info.param_index("missing"), None);
        assert_eq!(info.name(), "Assign");
    }

    #[test]
    fn overlapping_groups_allowed() {
        let (s, els) = paper_example();
        // EL3 belongs to both G1 and G3.
        let el3 = NodeRef::Element(els[2]);
        assert_eq!(s.parents(el3).len(), 2);
    }
}

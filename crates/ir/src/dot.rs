//! Graphviz (DOT) export of dependence DAGs.
//!
//! Handy for inspecting what URSA's transformations did to a trace:
//! data edges are solid, memory edges dashed, control edges dotted, and
//! URSA's added sequence edges bold red — the visual counterpart of the
//! paper's Figure 3.

use crate::ddg::{DependenceDag, NodeKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use ursa_graph::dag::{EdgeKind, NodeId};

/// A visual annotation for [`to_dot_annotated`]: fill `node` with
/// `color` and append `note` to its label (one line per note).
#[derive(Clone, Debug)]
pub struct DotAnnotation {
    /// The node decorated.
    pub node: NodeId,
    /// Graphviz fill color, e.g. `"lightcoral"`.
    pub color: String,
    /// Short human-readable reason, e.g. a lint code.
    pub note: String,
}

/// Renders `ddg` as a DOT digraph.
///
/// # Examples
///
/// ```
/// use ursa_ir::{ddg::DependenceDag, dot::to_dot, parser::parse};
///
/// let p = parse("v0 = const 1\nstore a[0], v0\n").unwrap();
/// let dag = DependenceDag::from_entry_block(&p);
/// let dot = to_dot(&dag, "example");
/// assert!(dot.starts_with("digraph example {"));
/// assert!(dot.contains("store"));
/// ```
pub fn to_dot(ddg: &DependenceDag, name: &str) -> String {
    to_dot_annotated(ddg, name, &[])
}

/// Renders `ddg` as a DOT digraph with nodes decorated by
/// `annotations` — filled with the given color and labeled with the
/// notes. Used by `ursac --dot-annotated` to highlight excessive chain
/// sets and lint findings; several annotations may target one node (the
/// first color wins, all notes are shown).
pub fn to_dot_annotated(ddg: &DependenceDag, name: &str, annotations: &[DotAnnotation]) -> String {
    let mut decor: HashMap<u32, (String, Vec<String>)> = HashMap::new();
    for a in annotations {
        decor
            .entry(a.node.0)
            .or_insert_with(|| (a.color.clone(), Vec::new()))
            .1
            .push(a.note.clone());
    }
    let mut out = String::new();
    writeln!(out, "digraph {name} {{").unwrap();
    writeln!(out, "  rankdir=TB;").unwrap();
    writeln!(out, "  node [shape=box, fontname=\"monospace\"];").unwrap();
    for n in ddg.dag().nodes() {
        let (mut label, style) = match ddg.kind(n) {
            NodeKind::Entry => ("entry".to_string(), "shape=circle"),
            NodeKind::Exit => ("exit".to_string(), "shape=doublecircle"),
            NodeKind::LiveIn { reg } => (format!("live-in {reg}"), "style=dashed"),
            NodeKind::Op { instr, .. } => (instr.to_string(), "style=solid"),
            NodeKind::Branch { cond, .. } => (format!("br {cond}"), "shape=diamond"),
        };
        let mut style = style.to_string();
        if let Some((color, notes)) = decor.get(&n.0) {
            for note in notes {
                label.push_str("\\n");
                label.push_str(note);
            }
            style = format!("style=filled, fillcolor=\"{color}\"");
        }
        writeln!(
            out,
            "  n{} [label=\"{}\", {}];",
            n.0,
            label.replace('"', "'"),
            style
        )
        .unwrap();
    }
    for e in ddg.dag().edges() {
        let attrs = match e.kind {
            EdgeKind::Data => "color=black",
            EdgeKind::Memory => "style=dashed, color=blue",
            EdgeKind::Control => "style=dotted, color=gray",
            EdgeKind::Anti => "style=dashed, color=orange",
            EdgeKind::Sequence => "style=bold, color=red",
        };
        writeln!(out, "  n{} -> n{} [{}];", e.from.0, e.to.0, attrs).unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn dot_contains_every_node_and_edge_kind() {
        let p = parse(
            "v0 = load a[0]\n\
             v1 = mul v0, 2\n\
             store a[0], v1\n\
             store a[0], 5\n",
        )
        .unwrap();
        let mut ddg = DependenceDag::from_entry_block(&p);
        // Add a sequence edge so the red style appears.
        ddg.add_sequence_edge(ddg.dag().node(3), ddg.dag().node(5));
        let dot = to_dot(&ddg, "t");
        assert!(dot.contains("digraph t {"));
        assert!(dot.contains("entry"));
        assert!(dot.contains("exit"));
        assert!(dot.contains("color=red"), "sequence edge styled");
        assert!(
            dot.contains("style=dashed, color=blue"),
            "memory edge styled"
        );
        let node_lines = dot.lines().filter(|l| l.contains("[label=")).count();
        assert_eq!(node_lines, ddg.dag().node_count());
    }

    #[test]
    fn annotations_fill_and_note_nodes() {
        let p = parse("v0 = const 1\nv1 = add v0, 2\nstore a[0], v1\n").unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let ann = vec![
            DotAnnotation {
                node: ddg.dag().node(2),
                color: "lightcoral".into(),
                note: "U0101 dead-value".into(),
            },
            DotAnnotation {
                node: ddg.dag().node(2),
                color: "yellow".into(),
                note: "excessive registers".into(),
            },
        ];
        let dot = to_dot_annotated(&ddg, "a", &ann);
        assert!(dot.contains("fillcolor=\"lightcoral\""), "{dot}");
        assert!(!dot.contains("yellow"), "first color wins");
        assert!(dot.contains("U0101 dead-value"));
        assert!(dot.contains("excessive registers"));
        // Plain export is the zero-annotation case.
        assert_eq!(to_dot(&ddg, "a"), to_dot_annotated(&ddg, "a", &[]));
    }

    #[test]
    fn quotes_are_escaped() {
        let p = parse("v0 = const 1\n").unwrap();
        let ddg = DependenceDag::from_entry_block(&p);
        let dot = to_dot(&ddg, "q");
        for line in dot.lines().filter(|l| l.contains("label")) {
            assert_eq!(line.matches('"').count() % 2, 0, "balanced quotes: {line}");
        }
    }
}

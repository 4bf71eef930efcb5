//! The whole-program static lock-order graph.
//!
//! Nodes are rank constants from `crates/sync/src/rank.rs`; an edge `A → B`
//! means "a guard of `A` was live when `B` was acquired" — either directly
//! inside one function body, or through one level of call-graph propagation
//! (a call made while holding `A` into a function whose body acquires `B`).
//!
//! Two failure modes, both caught without running a single test:
//!
//! * a **cycle** in the graph — two code paths acquire a set of locks in
//!   incompatible orders, the classic deadlock shape;
//! * an edge that **contradicts the rank table** — `order(A) >= order(B)`,
//!   i.e. the runtime checker would panic on this path if a test ever drove
//!   it. Statically checking the same invariant makes rank coverage
//!   verifiable for paths no test exercises.

use crate::guards::FnSummary;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// `NAME → (order, "dotted.name")` parsed from `rank.rs`.
#[derive(Debug, Default)]
pub struct RankTable {
    map: BTreeMap<String, (u16, String)>,
}

impl RankTable {
    /// Parses `pub const NAME: LockRank = LockRank::new(order, "name");`
    /// declarations out of `rank.rs` source text.
    pub fn parse(src: &str) -> Self {
        let toks = crate::lexer::lex(src);
        let sig: Vec<&crate::lexer::Token<'_>> = toks.iter().filter(|t| !t.is_trivia()).collect();
        let mut map = BTreeMap::new();
        let mut i = 0usize;
        while i + 1 < sig.len() {
            if sig[i].text == "const" && sig[i + 1].kind == crate::lexer::TokenKind::Ident {
                let name = sig[i + 1].text.to_string();
                // Scan forward for `new ( NUMBER , STRING )`.
                let mut j = i + 2;
                while j + 3 < sig.len() && sig[j].text != ";" {
                    if sig[j].text == "new" && sig[j + 1].text == "(" {
                        let order = sig[j + 2].text.replace('_', "").parse::<u16>().ok();
                        let dotted = sig
                            .get(j + 4)
                            .filter(|t| t.kind == crate::lexer::TokenKind::Str)
                            .map(|t| t.text.trim_matches('"').to_string());
                        if let (Some(order), Some(dotted)) = (order, dotted) {
                            map.insert(name.clone(), (order, dotted));
                        }
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
            i += 1;
        }
        Self { map }
    }

    pub fn order(&self, rank: &str) -> Option<u16> {
        self.map.get(rank).map(|(o, _)| *o)
    }

    pub fn dotted(&self, rank: &str) -> Option<&str> {
        self.map.get(rank).map(|(_, d)| d.as_str())
    }
}

/// One acquired-while-held edge with a representative source site.
#[derive(Debug, Clone)]
pub struct GraphEdge {
    pub held: String,
    pub acquired: String,
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    /// Callee name if the edge came from one-level call propagation.
    pub via: Option<String>,
}

/// Builds the deduplicated edge set: direct edges plus one level of
/// call-graph propagation (calls made while holding → callee's direct
/// acquisitions).
pub fn build_edges(fns: &[FnSummary]) -> Vec<GraphEdge> {
    // Callee name → ranks that function's body acquires (any definition with
    // that name; approximate by design).
    let mut acquires_by_name: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for f in fns {
        if f.name.contains('@') {
            continue;
        }
        for rank in &f.acquires {
            acquires_by_name.entry(&f.name).or_default().insert(rank);
        }
    }

    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut edges = Vec::new();
    for f in fns {
        for e in &f.edges {
            if seen.insert((e.held.clone(), e.acquired.clone())) {
                edges.push(GraphEdge {
                    held: e.held.clone(),
                    acquired: e.acquired.clone(),
                    file: f.file.clone(),
                    line: e.line,
                    col: e.col,
                    via: None,
                });
            }
        }
        for call in &f.calls_held {
            // Stoplisted names carry no signal; a callee sharing the caller's
            // own name is wrapper delegation that bare-name matching would
            // resolve back to the caller itself.
            if crate::guards::CALL_STOPLIST.contains(&call.callee.as_str()) || call.callee == f.name
            {
                continue;
            }
            let Some(acquired) = acquires_by_name.get(call.callee.as_str()) else {
                continue;
            };
            for held in &call.held {
                for acq in acquired {
                    if seen.insert((held.clone(), (*acq).to_string())) {
                        edges.push(GraphEdge {
                            held: held.clone(),
                            acquired: (*acq).to_string(),
                            file: f.file.clone(),
                            line: call.line,
                            col: call.col,
                            via: Some(call.callee.clone()),
                        });
                    }
                }
            }
        }
    }
    edges.sort_by(|a, b| (&a.held, &a.acquired).cmp(&(&b.held, &b.acquired)));
    edges
}

/// A lock-order problem found in the graph.
#[derive(Debug)]
pub struct GraphProblem {
    /// `cycle` or `rank-contradiction`.
    pub kind: &'static str,
    pub message: String,
    /// Representative site (an edge's acquisition site).
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
}

/// Checks the edge set: rank contradictions per edge, then cycles over the
/// whole graph. Returns problems in deterministic order.
pub fn check(edges: &[GraphEdge], table: &RankTable) -> Vec<GraphProblem> {
    let mut problems = Vec::new();

    for e in edges {
        if let (Some(h), Some(a)) = (table.order(&e.held), table.order(&e.acquired)) {
            if h >= a {
                let via = e
                    .via
                    .as_deref()
                    .map(|c| format!(" via call to `{c}`"))
                    .unwrap_or_default();
                problems.push(GraphProblem {
                    kind: "rank-contradiction",
                    message: format!(
                        "acquiring `{}` (rank {a}) while holding `{}` (rank {h}){via} \
                         contradicts crates/sync/src/rank.rs: blocking acquisitions must take \
                         strictly increasing ranks",
                        e.acquired, e.held,
                    ),
                    file: e.file.clone(),
                    line: e.line,
                    col: e.col,
                });
            }
        }
    }

    // Tarjan SCC over the rank-name graph; any SCC with >1 node (or a
    // self-loop) is a cycle.
    let mut nodes: Vec<&str> = edges
        .iter()
        .flat_map(|e| [e.held.as_str(), e.acquired.as_str()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    nodes.sort_unstable();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[index_of[e.held.as_str()]].push(index_of[e.acquired.as_str()]);
    }
    for sorted in &mut adj {
        sorted.sort_unstable();
        sorted.dedup();
    }

    let sccs = tarjan(&adj);
    for scc in sccs {
        let is_cycle = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
        if !is_cycle {
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&i| nodes[i]).collect();
        names.sort_unstable();
        let members: BTreeSet<&str> = names.iter().copied().collect();
        // Representative site: the first edge inside the cycle.
        let site = edges
            .iter()
            .find(|e| members.contains(e.held.as_str()) && members.contains(e.acquired.as_str()))
            .expect("cycle implies at least one internal edge");
        let internal: Vec<String> = edges
            .iter()
            .filter(|e| members.contains(e.held.as_str()) && members.contains(e.acquired.as_str()))
            .map(|e| {
                format!(
                    "{} -> {} ({}:{})",
                    e.held,
                    e.acquired,
                    e.file.display(),
                    e.line
                )
            })
            .collect();
        problems.push(GraphProblem {
            kind: "cycle",
            message: format!(
                "lock-order cycle among {{{}}}: {}",
                names.join(", "),
                internal.join("; ")
            ),
            file: site.file.clone(),
            line: site.line,
            col: site.col,
        });
    }

    problems
        .sort_by(|a, b| (&a.file, a.line, a.col, a.kind).cmp(&(&b.file, b.line, b.col, b.kind)));
    problems
}

/// Iterative Tarjan strongly-connected components; returns SCCs sorted by
/// their smallest node index for determinism.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack: (node, next-child position).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs.sort_by_key(|scc| scc[0]);
    sccs
}

/// Renders the graph as deterministic text lines for `--graph` output and
/// the JSON artifact.
pub fn render(edges: &[GraphEdge], table: &RankTable) -> Vec<String> {
    edges
        .iter()
        .map(|e| {
            let fmt_rank = |name: &str| match (table.dotted(name), table.order(name)) {
                (Some(d), Some(o)) => format!("{d} ({o})"),
                _ => format!("{name} (?)"),
            };
            let via = e
                .via
                .as_deref()
                .map(|c| format!(" via `{c}`"))
                .unwrap_or_default();
            format!(
                "{} -> {}{via}  [{}:{}]",
                fmt_rank(&e.held),
                fmt_rank(&e.acquired),
                e.file.display(),
                e.line
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn edge(held: &str, acquired: &str) -> GraphEdge {
        GraphEdge {
            held: held.into(),
            acquired: acquired.into(),
            file: PathBuf::from("f.rs"),
            line: 1,
            col: 1,
            via: None,
        }
    }

    /// Parses the real `rank.rs`, and every rank constant must appear
    /// (backticked) in the DESIGN.md §7 hierarchy table.
    #[test]
    fn rank_table_parses_the_real_rank_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .unwrap();
        let src = std::fs::read_to_string(root.join("crates/sync/src/rank.rs")).unwrap();
        let table = RankTable::parse(&src);
        assert!(
            table.map.len() >= 20,
            "found only {} ranks",
            table.map.len()
        );
        let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
        for (name, (order, dotted)) in &table.map {
            assert!(
                design.contains(&format!("`{name}`")),
                "rank constant {name} ({order}, {dotted}) missing from the \
                 DESIGN.md §7 hierarchy table"
            );
        }
        assert_eq!(table.order("CONTAINER_PROCESSOR"), Some(310));
        assert_eq!(table.order("CONTAINER_CORE"), Some(320));
        assert_eq!(
            table.dotted("WAL_LOG").unwrap(),
            "wal.log",
            "dotted names must parse"
        );
    }

    #[test]
    fn contradiction_detected_against_table() {
        let table = RankTable::parse(
            "pub const A: LockRank = LockRank::new(10, \"a\");\n\
             pub const B: LockRank = LockRank::new(20, \"b\");\n",
        );
        // Legal edge: no problems.
        assert!(check(&[edge("A", "B")], &table).is_empty());
        // Inverted edge: contradiction (plus no cycle — single edge).
        let probs = check(&[edge("B", "A")], &table);
        assert_eq!(probs.len(), 1, "{probs:?}");
        assert_eq!(probs[0].kind, "rank-contradiction");
    }

    #[test]
    fn cycle_detected_even_without_rank_orders() {
        let table = RankTable::default();
        let probs = check(&[edge("X", "Y"), edge("Y", "X")], &table);
        assert_eq!(probs.len(), 1, "{probs:?}");
        assert_eq!(probs[0].kind, "cycle");
        assert!(probs[0].message.contains("X"), "{}", probs[0].message);
        // Self-loop is also a cycle.
        let probs = check(&[edge("Z", "Z")], &table);
        assert_eq!(probs.len(), 1);
        assert_eq!(probs[0].kind, "cycle");
    }

    #[test]
    fn acyclic_graph_is_clean() {
        let table = RankTable::default();
        let probs = check(&[edge("A", "B"), edge("B", "C"), edge("A", "C")], &table);
        assert!(probs.is_empty(), "{probs:?}");
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let table = RankTable::parse(
            "pub const A: LockRank = LockRank::new(1, \"a.a.a\");\n\
             pub const B: LockRank = LockRank::new(2, \"b.b.b\");\n",
        );
        let lines = render(&build_edges(&[]), &table);
        assert!(lines.is_empty());
        let e = [edge("A", "B")];
        let lines = render(&e, &table);
        assert_eq!(lines, vec!["a.a.a (1) -> b.b.b (2)  [f.rs:1]".to_string()]);
    }
}

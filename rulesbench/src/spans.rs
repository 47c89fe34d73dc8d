//! Per-name wall and self times from a [`dr_trace`] span snapshot.

use dr_trace::{Snapshot, Span};
use std::collections::BTreeMap;

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Summed wall time, seconds.
    pub wall_s: f64,
    /// Summed self time: each span's wall time minus the wall time of
    /// its direct children.
    pub self_s: f64,
}

fn duration(snap: &Snapshot, s: &Span) -> f64 {
    s.end_s.unwrap_or(snap.now_s) - s.start_s
}

/// Wall and self time per span name.
pub fn totals(snap: &Snapshot) -> BTreeMap<String, NameTotals> {
    let mut child_s = vec![0.0f64; snap.spans.len()];
    for s in &snap.spans {
        if let Some(p) = s.parent {
            child_s[p.0 as usize] += duration(snap, s);
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, child) in snap.spans.iter().zip(&child_s) {
        let d = duration(snap, s);
        let t = out.entry(s.name.clone()).or_default();
        t.wall_s += d;
        t.self_s += d - child;
    }
    out
}

/// Wall time of every span named `name`, in creation order.
pub fn durations(snap: &Snapshot, name: &str) -> Vec<f64> {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| duration(snap, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_trace::SpanId;

    fn span(id: u64, name: &str, parent: Option<u64>, start_s: f64, end_s: f64) -> Span {
        Span {
            id: SpanId(id),
            name: name.into(),
            lane: 0,
            parent: parent.map(SpanId),
            start_s,
            end_s: Some(end_s),
            notes: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // explore [0,10] > eval [1,4] > sim [2,3]; explore > eval [5,9].
        let snap = Snapshot {
            lanes: vec!["l".into()],
            spans: vec![
                span(0, "explore", None, 0.0, 10.0),
                span(1, "eval", Some(0), 1.0, 4.0),
                span(2, "sim", Some(1), 2.0, 3.0),
                span(3, "eval", Some(0), 5.0, 9.0),
            ],
            follows: Vec::new(),
            now_s: 10.0,
        };
        let t = totals(&snap);
        assert_eq!(t["explore"].wall_s, 10.0);
        assert_eq!(t["explore"].self_s, 3.0, "10 - (3 + 4)");
        assert_eq!(t["eval"].wall_s, 7.0);
        assert_eq!(
            t["eval"].self_s, 6.0,
            "7 - 1, the grandchild is not subtracted twice"
        );
        assert_eq!(t["sim"].self_s, 1.0);
        let self_sum: f64 = t.values().map(|v| v.self_s).sum();
        assert_eq!(self_sum, 10.0, "self times partition the root's wall time");
        assert_eq!(durations(&snap, "eval"), vec![3.0, 4.0]);
    }

    #[test]
    fn open_spans_end_at_the_snapshot() {
        let mut open = span(0, "pipeline", None, 1.0, 0.0);
        open.end_s = None;
        let snap = Snapshot {
            lanes: vec!["l".into()],
            spans: vec![open],
            follows: Vec::new(),
            now_s: 4.0,
        };
        assert_eq!(totals(&snap)["pipeline"].self_s, 3.0);
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer (a crate of the simulator); nothing inside the simulator is
//! instrumented. Every span carries the id of the workload pass it
//! belongs to, its parent span and its layer. The spans are kept in
//! memory and written out once, when the benchmark ends; a layer's self
//! time is the time its spans cover minus the part covered by their
//! child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    layer: &'static str,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans; a disabled recorder records nothing and costs one
/// branch per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Starts a new pass id; spans recorded from now on share it.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` attributed to `layer`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (a worker thread of the
    /// runner's pool) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, layer: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                layer,
                pass: self.pass,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// union of its children's intervals (children recorded from
    /// parallel workers may overlap each other).
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans and per-layer self times as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut j = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                j,
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"pass\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.layer,
                s.pass,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        j.push_str("], \"layer_self_s\": {");
        let layers: Vec<String> = self
            .layer_self_s()
            .iter()
            .map(|(l, s)| format!("\"{l}\": {s}"))
            .collect();
        j.push_str(&layers.join(", "));
        j.push_str("}}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        let mk = |name, layer, parent, start_ns, end_ns| Span {
            name,
            layer,
            pass: 0,
            parent,
            start_ns,
            end_ns,
        };
        s.spans = vec![
            mk("sweep", "runner", None, 0, 100),
            mk("job", "dsm-machine", Some(0), 10, 60),
            mk("job", "dsm-machine", Some(0), 40, 90),
        ];
        let t = s.layer_self_s();
        assert_eq!(t["runner"], 20.0 / 1e9);
        assert_eq!(t["dsm-machine"], 100.0 / 1e9);
    }
}

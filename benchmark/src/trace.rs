//! In-memory span trace recorded by the rig around each call into a layer.
//!
//! The program is not instrumented; the rig opens a span before it calls a
//! layer's public function and closes it after. A layer's *self time* is its
//! spans' duration minus the part their child spans cover. Totals are kept
//! for the whole traced segment; the first [`Tracer::capacity`] spans are
//! also kept one by one and written out when the run ends.

use std::time::Instant;

/// Span names, one per boundary the rig can see from outside.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// One burst, generator to sink: the root of every other span.
    Burst,
    RigGen,
    RigSink,
    CoreIngress,
    CoreEgress,
    IpcDequeue,
    IpcEnqueue,
    RouterProcess,
    ClickProcess,
    /// One control round; parent of the control spans below.
    Control,
    CoreTick,
    CoreProcessControl,
    CheckpointBuild,
    CheckpointEncode,
    CheckpointDiff,
    MetricsRender,
}

pub const LAYERS: [Layer; 16] = [
    Layer::Burst,
    Layer::RigGen,
    Layer::RigSink,
    Layer::CoreIngress,
    Layer::CoreEgress,
    Layer::IpcDequeue,
    Layer::IpcEnqueue,
    Layer::RouterProcess,
    Layer::ClickProcess,
    Layer::Control,
    Layer::CoreTick,
    Layer::CoreProcessControl,
    Layer::CheckpointBuild,
    Layer::CheckpointEncode,
    Layer::CheckpointDiff,
    Layer::MetricsRender,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Burst => "burst",
            Layer::RigGen => "rig.gen",
            Layer::RigSink => "rig.sink",
            Layer::CoreIngress => "core.ingress_batch",
            Layer::CoreEgress => "core.poll_egress",
            Layer::IpcDequeue => "ipc.vri_dequeue",
            Layer::IpcEnqueue => "ipc.vri_enqueue",
            Layer::RouterProcess => "router.process",
            Layer::ClickProcess => "click.process",
            Layer::Control => "control_round",
            Layer::CoreTick => "core.maybe_reallocate",
            Layer::CoreProcessControl => "core.process_control",
            Layer::CheckpointBuild => "core.checkpoint.build",
            Layer::CheckpointEncode => "core.checkpoint.encode",
            Layer::CheckpointDiff => "core.checkpoint.delta_diff",
            Layer::MetricsRender => "metrics.render_prometheus",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `parent` indexes [`Tracer::spans`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub burst_id: u32,
}

#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    children_ns: u64,
    slot: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    capacity: usize,
    totals: [LayerTotal; LAYERS.len()],
    burst_id: u32,
}

impl Tracer {
    /// A tracer that keeps at most `capacity` individual spans (allocated
    /// now, never grown) and starts switched off.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(capacity),
            capacity,
            totals: [LayerTotal::default(); LAYERS.len()],
            burst_id: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_burst(&mut self, id: u32) {
        self.burst_id = id;
    }

    #[inline]
    pub fn begin(&mut self, layer: Layer) {
        if self.on {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.begin_at(layer, now);
        }
    }

    #[inline]
    pub fn end(&mut self) {
        if self.on {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.end_at(now);
        }
    }

    fn begin_at(&mut self, layer: Layer, now: u64) {
        let mut slot = NO_PARENT;
        if self.spans.len() < self.capacity {
            slot = self.spans.len() as u32;
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.slot);
            self.spans.push(Span {
                layer,
                start_ns: now,
                end_ns: now,
                parent,
                burst_id: self.burst_id,
            });
        }
        self.stack.push(Open { layer, start_ns: now, children_ns: 0, slot });
    }

    fn end_at(&mut self, now: u64) {
        let open = self.stack.pop().expect("span ended that was never begun");
        let dur = now.saturating_sub(open.start_ns);
        let t = &mut self.totals[open.layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.children_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if open.slot != NO_PARENT {
            self.spans[open.slot as usize].end_ns = now;
        }
    }

    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    /// Self time summed over every layer except the root: the time the
    /// trace can attribute.
    pub fn attributed_ns(&self) -> u64 {
        LAYERS.iter().filter(|l| **l != Layer::Burst).map(|l| self.total(*l).self_ns).sum()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans and per-layer totals as one JSON document.
    pub fn to_json(&self, workload: &str, wall_ns: u64) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        let _ =
            write!(s, "{{\"workload\":\"{workload}\",\"traced_wall_ns\":{wall_ns},\"layers\":[");
        for (i, l) in LAYERS.iter().enumerate() {
            let t = self.total(*l);
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i == 0 { "" } else { "," },
                l.name(),
                t.calls,
                t.total_ns,
                t.self_ns
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"burst_id\":{}}}",
                if i == 0 { "" } else { "," },
                sp.layer.name(),
                sp.start_ns,
                sp.end_ns,
                if sp.parent == NO_PARENT { -1 } else { i64::from(sp.parent) },
                sp.burst_id
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(16);
        t.set_on(true);
        t.set_burst(7);
        t.begin_at(Layer::Burst, 100);
        t.begin_at(Layer::CoreIngress, 110);
        t.end_at(150); // 40
        t.begin_at(Layer::Control, 160);
        t.begin_at(Layer::CoreTick, 165);
        t.end_at(185); // 20
        t.end_at(200); // 40 total, 20 self
        t.end_at(220); // 120 total, 40 self
        assert_eq!(t.total(Layer::CoreIngress), LayerTotal { calls: 1, total_ns: 40, self_ns: 40 });
        assert_eq!(t.total(Layer::CoreTick).self_ns, 20);
        assert_eq!(t.total(Layer::Control), LayerTotal { calls: 1, total_ns: 40, self_ns: 20 });
        assert_eq!(t.total(Layer::Burst), LayerTotal { calls: 1, total_ns: 120, self_ns: 40 });
        assert_eq!(t.attributed_ns(), 80);
        // Self times of all layers add up to the root's duration.
        let all: u64 = LAYERS.iter().map(|l| t.total(*l).self_ns).sum();
        assert_eq!(all, 120);
        let tick = t.spans()[3];
        assert_eq!((tick.layer, tick.parent, tick.burst_id), (Layer::CoreTick, 2, 7));
        assert_eq!(t.spans()[0].parent, NO_PARENT);
        assert_eq!(t.spans()[0].end_ns, 220);
    }

    #[test]
    fn full_buffer_keeps_totals_and_drops_records() {
        let mut t = Tracer::new(1);
        t.set_on(true);
        t.begin_at(Layer::Burst, 0);
        t.begin_at(Layer::RigGen, 1);
        t.end_at(4);
        t.end_at(10);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.total(Layer::RigGen).self_ns, 3);
        assert_eq!(t.total(Layer::Burst).self_ns, 7);
        assert!(t.to_json("w", 10).contains("\"parent\":-1"));
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(4);
        t.begin(Layer::Burst);
        t.end();
        assert!(t.spans().is_empty());
        assert_eq!(t.total(Layer::Burst).calls, 0);
    }
}

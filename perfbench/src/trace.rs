//! Timing from outside the program: an in-memory span recorder for the
//! benchmark's own phases, and per-layer accumulators filled by timing
//! the benchmark's calls into the simulator's public functions.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use vmr_core::MrPolicy;
use vmr_desim::SimTime;
use vmr_vcore::{ClientId, Engine, Policy, ResultId, WuId};

use crate::thread_cpu_s;

/// One closed span: a benchmark phase and the span that contains it.
struct Span {
    name: String,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans held in memory and written out once the workload ends. A
/// disabled tracer records nothing, so untraced runs pay nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        r
    }

    /// Writes every span (with its self time: duration minus the part
    /// its children cover) and the per-layer totals as one JSON object.
    pub fn write(&self, path: &Path, layers: &[(&str, f64, &str)]) -> std::io::Result<()> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.end_s - s.start_s;
            }
        }
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{:?},\"end_s\":{:?},\"self_s\":{:?}}}",
                s.name,
                s.start_s,
                s.end_s,
                s.end_s - s.start_s - child_s[i]
            ));
        }
        out.push_str("],\"layers\":{");
        for (i, (name, v, unit)) in layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
            ));
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Host time spent in each layer the benchmark can time from outside.
/// Per-event calls are summed here rather than recorded as spans.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Db::all_wus_terminal`, called by the `run_until` stop closure.
    pub terminal_s: f64,
    pub terminal_calls: u64,
    /// Every policy hook, and `on_wu_validated` on its own.
    pub hook_s: f64,
    pub hook_calls: u64,
    pub validated_s: f64,
    pub validated_max_s: f64,
    /// `MrPolicy::submit_job`.
    pub submit_s: f64,
    /// `EngineBuilder::build`.
    pub build_s: f64,
    /// `SizingModel::calibrate`, with its corpus generation.
    pub calibrate_s: f64,
}

/// A policy wrapper that times each hook of the policy it wraps.
struct Timed<'a, P> {
    inner: &'a mut P,
    layers: &'a mut Layers,
}

impl<P> Timed<'_, P> {
    fn time<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f(self.inner);
        let dt = t.elapsed().as_secs_f64();
        self.layers.hook_s += dt;
        self.layers.hook_calls += 1;
        (r, dt)
    }
}

impl<P: Policy> Policy for Timed<'_, P> {
    fn on_wu_validated(&mut self, eng: &mut Engine, wu: WuId, agreeing: &[ClientId]) {
        let ((), dt) = self.time(|p| p.on_wu_validated(eng, wu, agreeing));
        self.layers.validated_s += dt;
        self.layers.validated_max_s = self.layers.validated_max_s.max(dt);
    }
    fn on_wu_failed(&mut self, eng: &mut Engine, wu: WuId) {
        self.time(|p| p.on_wu_failed(eng, wu));
    }
    fn on_task_granted(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.time(|p| p.on_task_granted(eng, client, rid));
    }
    fn on_task_executed(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.time(|p| p.on_task_executed(eng, client, rid));
    }
    fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {
        self.time(|p| p.on_result_reported(eng, rid));
    }
    fn on_custom(&mut self, eng: &mut Engine, tag: u64) {
        self.time(|p| p.on_custom(eng, tag));
    }
    fn durable_sections(&self, out: &mut Vec<(String, Vec<u8>)>) {
        self.inner.durable_sections(out);
    }
}

/// Runs `eng` until every work unit is terminal, as `run_experiment`
/// does, and returns the event count and the wall and CPU seconds it
/// took. With `layers`, the stop predicate and every policy hook are
/// timed and the program's own `prof.*` scopes are switched on.
pub fn run<P: Policy>(
    eng: &mut Engine,
    pol: &mut P,
    horizon: SimTime,
    layers: Option<&mut Layers>,
) -> (u64, f64, f64) {
    let t = Instant::now();
    let cpu = thread_cpu_s();
    let events = match layers {
        None => eng.run_until(pol, horizon, |e| e.db.all_wus_terminal()),
        Some(layers) => {
            eng.obs.set_profiling(true);
            let (mut stop_s, mut calls) = (0.0, 0u64);
            let mut timed = Timed { inner: pol, layers };
            let n = eng.run_until(&mut timed, horizon, |e| {
                let t = Instant::now();
                let done = e.db.all_wus_terminal();
                stop_s += t.elapsed().as_secs_f64();
                calls += 1;
                done
            });
            timed.layers.terminal_s += stop_s;
            timed.layers.terminal_calls += calls;
            eng.obs.set_profiling(false);
            n
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    (events, wall_s, thread_cpu_s() - cpu)
}

/// `MrPolicy::submit_job`, timed into `layers`.
pub fn submit(
    pol: &mut MrPolicy,
    eng: &mut Engine,
    jc: vmr_core::MrJobConfig,
    layers: &mut Layers,
) {
    let t = Instant::now();
    pol.submit_job(eng, jc);
    layers.submit_s += t.elapsed().as_secs_f64();
}

/// `EngineBuilder::build`, timed into `layers`.
pub fn build(b: vmr_vcore::EngineBuilder, layers: &mut Layers) -> Engine {
    let t = Instant::now();
    let eng = b.build();
    layers.build_s += t.elapsed().as_secs_f64();
    eng
}

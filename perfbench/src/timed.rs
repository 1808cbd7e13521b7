//! The timed phases: the scheduler matrix through `BatchEngine` and the
//! closed-loop client through `Service::handle_line`.

use std::time::{Duration, Instant};

use hrms_ddg::Ddg;
use hrms_engine::BatchEngine;
use hrms_machine::Machine;
use hrms_modsched::{ModuloScheduler, SchedError, ScheduleOutcome};
use hrms_serve::Service;

use crate::inputs::Request;

pub type Matrix = Vec<Vec<Vec<Result<ScheduleOutcome, SchedError>>>>;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Batches a matrix pass is split into. Each batch of consecutive loops is
/// timed on its own and keeps its best time over the passes, so a burst of
/// load from other tenants spoils one batch of a pass, not the whole pass.
/// Such load only ever slows a measurement down, so the best time is the
/// steadiest estimate of the code's own speed.
const BATCHES: usize = 8;

pub struct MatrixRun {
    /// Best wall time of each batch over the passes, in seconds.
    batch_best: Vec<f64>,
    pub passes: usize,
    per_pass: u64,
    /// Cells that returned an error (none is expected on these inputs).
    pub errors: u64,
    /// The outcomes of the last pass, for the correctness gate.
    pub last: Matrix,
}

impl MatrixRun {
    fn new(schedulers: usize, loops: usize, machines: usize) -> Self {
        let batches = loops.div_ceil(loops.div_ceil(BATCHES).max(1));
        MatrixRun {
            batch_best: vec![f64::INFINITY; batches],
            passes: 0,
            per_pass: (schedulers * loops * machines) as u64,
            errors: 0,
            last: Vec::new(),
        }
    }

    /// Cells per second of a pass whose every batch runs at its best time.
    pub fn rate(&self) -> f64 {
        self.per_pass as f64 / self.batch_best.iter().sum::<f64>()
    }

    /// One pass of `schedulers × loops × machines`, one
    /// [`BatchEngine::schedule_matrix`] call per batch of loops.
    fn pass(
        &mut self,
        engine: &BatchEngine,
        schedulers: &[&(dyn ModuloScheduler + Sync)],
        loops: &[Ddg],
        machines: &[Machine],
    ) {
        let mut last: Matrix = schedulers.iter().map(|_| Vec::new()).collect();
        let batch = loops.len().div_ceil(self.batch_best.len());
        for (best, chunk) in self.batch_best.iter_mut().zip(loops.chunks(batch)) {
            let t = Instant::now();
            let matrix = engine.schedule_matrix(schedulers, chunk, machines);
            *best = best.min(t.elapsed().as_secs_f64());
            for (row, part) in last.iter_mut().zip(matrix) {
                row.extend(part);
            }
        }
        self.passes += 1;
        self.errors += last
            .iter()
            .flatten()
            .flatten()
            .filter(|r| r.is_err())
            .count() as u64;
        self.last = last;
    }
}

/// Sends one request and returns its response lines.
pub fn send(service: &mut Service, line: &str) -> Vec<String> {
    let mut out = Vec::new();
    service.handle_line(line, &mut |record| out.push(record.to_string()));
    out
}

/// Sends every request of one pass of the stream (the set-up warm-up).
pub fn warm(service: &mut Service, requests: &[Request]) {
    for r in requests {
        service.handle_line(&r.line, &mut |_| {});
    }
}

pub struct ServeRun {
    pub latencies_ms: Vec<f64>,
    /// Requests in one pass of the stream.
    pub pass_len: usize,
}

impl ServeRun {
    /// The best latency of each position of the stream over the passes;
    /// positions the client never reached are left out. The client starts
    /// at the head of the stream, so every `pass_len` consecutive latencies
    /// form one pass, and a position asks for the same work on every pass
    /// (a hot request hits, a fresh one misses again because the LRU has
    /// evicted it), so its best time is the steadiest estimate of its cost.
    fn best_per_request(&self) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; self.pass_len];
        for pass in self.latencies_ms.chunks(self.pass_len) {
            for (b, &l) in best.iter_mut().zip(pass) {
                *b = b.min(l);
            }
        }
        best.retain(|b| b.is_finite());
        best
    }

    /// Requests per second of a pass of the stream whose every request
    /// takes its best time.
    pub fn rate(&self) -> f64 {
        let best = self.best_per_request();
        best.len() as f64 * 1e3 / best.iter().sum::<f64>()
    }

    /// The median over the stream's requests of each request's best
    /// latency.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.best_per_request(), 0.5)
    }

    /// The p99 of the request latencies. A sample is the quicker of one
    /// position's latencies in two consecutive passes, so a one-off stall
    /// from other tenants of the host drops out while a request that is
    /// slow every time stays slow. The p99 is taken in each window of whole
    /// passes holding at least 1000 samples (so it has ten beyond it); the
    /// figure is the median over the windows.
    pub fn p99_ms(&self) -> f64 {
        let samples: Vec<f64> = self
            .latencies_ms
            .chunks_exact(2 * self.pass_len)
            .flat_map(|two| {
                let (a, b) = two.split_at(self.pass_len);
                a.iter().zip(b).map(|(x, y)| x.min(*y))
            })
            .collect();
        let window = self.pass_len * 1000_usize.div_ceil(self.pass_len);
        let per_window: Vec<f64> = samples
            .chunks_exact(window)
            .map(|w| percentile(w, 0.99))
            .collect();
        if per_window.is_empty() {
            return percentile(&self.latencies_ms, 0.99);
        }
        median(&per_window)
    }
}

pub struct Measured {
    pub hrms: MatrixRun,
    pub baselines: MatrixRun,
    pub serve: ServeRun,
}

/// The timed region. Rounds of one HRMS matrix pass, one baseline matrix
/// pass and a slice of the closed-loop client (which sends the next
/// request of the cyclic stream only after the previous one was answered)
/// repeat until `seconds` are spent and at least three rounds ran. The
/// client gets 40 % of each round. Interleaving spreads every metric over
/// the whole window, so a burst of load from other tenants of the host
/// slows a few passes of each phase rather than one phase entirely.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    engine: &BatchEngine,
    hrms: &[&(dyn ModuloScheduler + Sync)],
    baselines: &[&(dyn ModuloScheduler + Sync)],
    loops: &[Ddg],
    machines: &[Machine],
    service: &mut Service,
    requests: &[Request],
    seconds: Duration,
) -> Measured {
    let mut m = Measured {
        hrms: MatrixRun::new(hrms.len(), loops.len(), machines.len()),
        baselines: MatrixRun::new(baselines.len(), loops.len(), machines.len()),
        serve: ServeRun {
            latencies_ms: Vec::new(),
            pass_len: requests.len(),
        },
    };
    let start = Instant::now();
    let mut next = requests.iter().cycle();
    while start.elapsed() < seconds || m.hrms.passes < 3 {
        let round = Instant::now();
        m.hrms.pass(engine, hrms, loops, machines);
        m.baselines.pass(engine, baselines, loops, machines);
        let slice = round.elapsed().mul_f64(2.0 / 3.0);
        let client = Instant::now();
        while client.elapsed() < slice {
            let r = next.next().expect("the stream is not empty");
            let t = Instant::now();
            service.handle_line(&r.line, &mut |_| {});
            m.serve.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    m
}

//! Host fingerprint, the default-backend guard, peak RSS, the reference
//! kernel that calibrates throughput, and two scalar reference probes.
//!
//! Configuration is never pinned through `SPLITBEAM_*` variables; the
//! workloads set every knob through the crates' APIs. What the *product*
//! reads from the environment on its own (kernel choice, event-queue backend,
//! default tail weights) is checked here instead: a run aborts when any of
//! them is not the shipped default, which is how a stray variable is caught.

use splitbeam_hwsim::EventQueue;
use splitbeam_serve::ApServer;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel_requested: &'static str,
    pub kernel_f32: &'static str,
    pub kernel_int8: &'static str,
    pub queue_backend: &'static str,
    pub default_tail_weights: &'static str,
    /// The start-up tuning probe's pick. Recorded, but not part of the
    /// identity: it flaps between processes on one host.
    pub tune: String,
}

impl Fingerprint {
    /// Resolves kernel dispatch and the tuning probe (both one-shot, lazy),
    /// so neither lands inside a timed slice.
    pub fn take() -> Self {
        let dispatch = mimo_math::kernel::dispatch_report();
        let tune = mimo_math::kernel::tune::params();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel_requested: dispatch.requested,
            kernel_f32: dispatch.selected,
            kernel_int8: dispatch.selected_int8,
            queue_backend: EventQueue::<()>::new().backend_name(),
            default_tail_weights: ApServer::new().tail_weights().name(),
            tune: format!(
                "f32_k_block={} int8_group_block={} int8_panel4={} probed={}",
                tune.f32_k_block, tune.int8_group_block, tune.int8_panel4, tune.probed
            ),
        }
    }

    /// The part two result files must share to be comparable.
    pub fn identity(&self) -> String {
        format!(
            "nproc={} kernel={}/{}/{} queue={} tail_weights={}",
            self.nproc,
            self.kernel_requested,
            self.kernel_f32,
            self.kernel_int8,
            self.queue_backend,
            self.default_tail_weights
        )
    }

    /// Fails when a backend is not the shipped default.
    pub fn guard(&self) -> Result<(), String> {
        let checks = [
            ("kernel", self.kernel_requested, "auto"),
            ("event queue", self.queue_backend, "wheel"),
            ("default tail weights", self.default_tail_weights, "f32"),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!(
                    "{what} is `{got}`, the shipped default is `{want}`: \
                     unset the SPLITBEAM_* variable that changed it"
                ));
            }
        }
        Ok(())
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The shape of a reference kernel: a dense layer and a batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefShape {
    pub batch: usize,
    pub k: usize,
    pub n: usize,
}

impl RefShape {
    /// The largest layer of `network` at `batch` rows: the weight matrix the
    /// workload's timed path streams most bytes of.
    pub fn largest(network: &neural::Network, batch: usize) -> Self {
        let layer = network
            .layers()
            .iter()
            .max_by_key(|l| l.input_dim() * l.output_dim())
            .expect("a network has at least one layer");
        Self {
            batch,
            k: layer.input_dim(),
            n: layer.output_dim(),
        }
    }
}

/// The benchmark's reference kernel: a plain `batch x k` by `k x n` f32
/// product in safe, compiler-vectorised Rust, shaped like the workload's
/// dominant dense layer so it leans on the same cache level and the same
/// core clock. It calls no product code, so no change to the product moves
/// it; what moves it is the host. This host's speed wanders by +-20% over
/// seconds (shared cache, turbo headroom), so every measured slice is
/// bracketed by reference calls and throughput is reported in frames per
/// reference call: how much work the program does in the time the host, at
/// that moment, needs for a fixed piece of similar work.
pub struct RefKernel {
    shape: RefShape,
    /// Products per call, so that a call is long enough to time.
    reps: usize,
    weights: Vec<f32>,
    input: Vec<f32>,
    out: Vec<f32>,
}

impl RefKernel {
    /// Multiply-accumulates one call should come to (about 1-3 ms).
    const CALL_MACS: usize = 6 << 20;

    pub fn new(shape: RefShape) -> Self {
        let RefShape { batch, k, n } = shape;
        Self {
            shape,
            reps: (Self::CALL_MACS / (batch * k * n)).max(1),
            weights: (0..k * n).map(|i| (i % 251) as f32 * 0.004 - 0.5).collect(),
            input: (0..batch * k)
                .map(|i| (i % 127) as f32 * 0.008 - 0.5)
                .collect(),
            out: vec![0.0; batch * n],
        }
    }

    /// Nanoseconds of one reference call.
    pub fn call_ns(&mut self) -> f64 {
        let RefShape { batch, k, n } = self.shape;
        let start = Instant::now();
        for _ in 0..self.reps {
            self.out.fill(0.0);
            let weights = black_box(self.weights.as_slice());
            for (kk, row) in weights.chunks_exact(n).enumerate() {
                for b in 0..batch {
                    let x = self.input[b * k + kk];
                    for (o, w) in self.out[b * n..(b + 1) * n].iter_mut().zip(row) {
                        *o += x * w;
                    }
                }
            }
            black_box(&mut self.out);
        }
        start.elapsed().as_nanos() as f64
    }
}

/// Scalar reference probes owned by the benchmark: they call no product code,
/// so when they move between two runs the host moved, not the program.
pub struct RefProbes {
    buffer: Vec<u64>,
}

impl RefProbes {
    /// 8 MiB: beyond L2 on the hosts this runs on, so the stream probe sees
    /// the memory system the tail GEMM's weight stream sees.
    const WORDS: usize = 1 << 20;
    const ALU_STEPS: u64 = 1 << 20;

    pub fn new() -> Self {
        Self {
            buffer: (0..Self::WORDS as u64).collect(),
        }
    }

    /// Nanoseconds to sum the buffer once.
    pub fn stream_ns(&self) -> f64 {
        let start = Instant::now();
        let sum = black_box(&self.buffer)
            .iter()
            .fold(0u64, |a, &b| a.wrapping_add(b));
        black_box(sum);
        start.elapsed().as_nanos() as f64
    }

    /// Nanoseconds for a dependent multiply-add chain of fixed length.
    pub fn alu_ns(&self) -> f64 {
        let start = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..Self::ALU_STEPS {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        black_box(x);
        start.elapsed().as_nanos() as f64
    }
}

impl Default for RefProbes {
    fn default() -> Self {
        Self::new()
    }
}

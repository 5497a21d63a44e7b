//! Seeded kernel preparation.
//!
//! [`lp_kernels::driver::prepare_kernel`] always uses each kernel's built-in
//! input seed. The benchmark derives its inputs from `--seed`, so it builds
//! the same [`PreparedKernel`] through the kernels' public `*Params` and
//! `setup` API with the seed overridden. With the kernel's default seed the
//! result is identical to `prepare_kernel`'s.

use lp_core::scheme::Scheme;
use lp_kernels::driver::{KernelId, PreparedKernel, Scale};
use lp_kernels::{cholesky, conv2d, fft, gauss, tmm};
use lp_sim::config::MachineConfig;
use lp_sim::machine::Machine;

/// Set up `kernel` under `scheme` at `scale` with input seed `seed`,
/// without running it.
///
/// # Panics
///
/// Panics if kernel setup fails (e.g. the configured NVMM is too small).
pub fn prepare(
    kernel: KernelId,
    scale: Scale,
    seed: u64,
    cfg: &MachineConfig,
    scheme: Scheme,
) -> PreparedKernel {
    macro_rules! prep {
        ($module:ident, $kernel:ident, $params:ident) => {{
            let mut params = match scale {
                Scale::Micro => $module::$params::micro(),
                Scale::Test => $module::$params::test_small(),
                Scale::Bench => $module::$params::bench_default(),
                Scale::Paper => $module::$params::paper_default(),
            };
            params.seed = seed;
            let mut machine = Machine::new(cfg.clone().with_cores(params.threads));
            let k = $module::$kernel::setup(&mut machine, params, scheme)
                .unwrap_or_else(|e| panic!("{kernel} setup: {e}"));
            let (plans, ranges) = (k.plans(), k.tracked_ranges());
            let (flip_lines, poison_lines) = (k.flip_lines(), k.repairable_lines());
            let k2 = k.clone();
            PreparedKernel {
                machine,
                plans,
                ranges,
                scheme,
                verify: Box::new(move |m| k.verify(m)),
                recover: Box::new(move |m| k2.recover(m)),
                flip_lines,
                poison_lines,
            }
        }};
    }
    match kernel {
        KernelId::Tmm => prep!(tmm, Tmm, TmmParams),
        KernelId::Cholesky => prep!(cholesky, Cholesky, CholeskyParams),
        KernelId::Conv2d => prep!(conv2d, Conv2d, Conv2dParams),
        KernelId::Gauss => prep!(gauss, Gauss, GaussParams),
        KernelId::Fft => prep!(fft, Fft, FftParams),
    }
}

/// The seed `prepare_kernel` uses for `kernel` at `scale` (for tests that
/// compare the benchmark's composed calls with the library's own).
pub fn default_seed(kernel: KernelId, scale: Scale) -> u64 {
    macro_rules! seed {
        ($module:ident, $params:ident) => {
            match scale {
                Scale::Micro => $module::$params::micro().seed,
                Scale::Test => $module::$params::test_small().seed,
                Scale::Bench => $module::$params::bench_default().seed,
                Scale::Paper => $module::$params::paper_default().seed,
            }
        };
    }
    match kernel {
        KernelId::Tmm => seed!(tmm, TmmParams),
        KernelId::Cholesky => seed!(cholesky, CholeskyParams),
        KernelId::Conv2d => seed!(conv2d, Conv2dParams),
        KernelId::Gauss => seed!(gauss, GaussParams),
        KernelId::Fft => seed!(fft, FftParams),
    }
}

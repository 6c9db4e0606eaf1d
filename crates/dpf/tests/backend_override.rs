//! End-to-end proof that the `PIR_PRF_BACKEND` environment override is
//! honored: the test re-executes itself with `PIR_PRF_BACKEND=scalar` and the
//! child asserts that dispatch, every built PRF, the kernel name and the
//! launch report all show the scalar backend — the exact path CI's
//! forced-scalar lane relies on.

use pir_dpf::{generate_keys, BatchEvalJob, DpfParams};
use pir_field::{Ring128, ShareMatrix};
use pir_prf::{build_prf, GgmPrg, PrfKind, SimdBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHILD_ENV: &str = "PIR_PRF_BACKEND_OVERRIDE_CHILD";

/// The child body: runs with `PIR_PRF_BACKEND=scalar` in a fresh process, so
/// the once-cached dispatch decision is made under the override.
fn assert_scalar_end_to_end() {
    assert_eq!(
        SimdBackend::active(),
        SimdBackend::Scalar,
        "dispatch must honor PIR_PRF_BACKEND=scalar"
    );
    for kind in PrfKind::ALL {
        assert_eq!(build_prf(kind).backend_label(), "scalar", "{kind}");
    }

    // And the label propagates through a real batched evaluation.
    let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
    let mut rng = StdRng::seed_from_u64(11);
    let rows = 128usize;
    let lanes = 4usize;
    let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
    let table = ShareMatrix::from_rows(rows, lanes, data);
    let params = DpfParams::for_domain(rows as u64);
    let (key, _) = generate_keys(&prg, &params, 7, Ring128::ONE, &mut rng);
    let keys = vec![key];

    let executor = gpu_sim::GpuExecutor::with_host_threads(gpu_sim::DeviceSpec::v100(), 1);
    let out = BatchEvalJob::new(&prg, PrfKind::Aes128, &keys, &table).run_on(&executor);
    assert_eq!(out.report.prf_backend, "scalar", "report backend tag");
    assert!(
        out.report.name.ends_with("|scalar]"),
        "kernel name {:?} must carry the scalar backend",
        out.report.name
    );
}

#[test]
fn scalar_override_is_honored_end_to_end() {
    if std::env::var_os(CHILD_ENV).is_some() {
        assert_scalar_end_to_end();
        return;
    }

    // Re-run exactly this test in a child process with the override set;
    // the parent process may already have detected (and cached) a SIMD
    // backend, so the env var must be applied before first dispatch.
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args([
            "scalar_override_is_honored_end_to_end",
            "--exact",
            "--nocapture",
        ])
        .env("PIR_PRF_BACKEND", "scalar")
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

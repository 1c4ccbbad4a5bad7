//! Fixtures shared by the checkpoint-file tests.

use jpmd_core::{methods, SimScale};
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{WorkloadBuilder, MIB};

/// Captures one real checkpoint from a short always-on run.
pub fn capture_checkpoint() -> SimCheckpoint {
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(64 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(600.0)
        .seed(7)
        .build()
        .expect("workload builds");
    let spec = methods::always_on(&scale);
    let mut captured = None;
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured = Some(ckpt);
        false
    };
    let outcome = methods::replay(
        &spec,
        &scale,
        trace.total_pages(),
        60.0,
        600.0,
        120.0,
        &Telemetry::disabled(),
        None,
    )
    .and_then(|replay| {
        replay.run_checkpointed(
            trace.source(),
            Some(CheckpointOptions {
                policy: CheckpointPolicy::every(1),
                on_checkpoint: &mut on_checkpoint,
            }),
        )
    })
    .expect("capture run");
    assert_eq!(outcome, SimOutcome::Interrupted);
    captured.expect("one checkpoint captured")
}

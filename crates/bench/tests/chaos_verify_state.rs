//! `verify_state` under an injected storage bitflip.
//!
//! The fault plan is process-global and `state.chunk.bitflip@3` fires on
//! the third chunk write-back in the whole process, so this test runs in
//! its own test binary: a compressed-state test running beside it would
//! take that write-back (and the flip) instead. Keep this file to tests
//! that arm faults.

use compressors::ErrorBound;
use qcf_bench::cli::verify_state;
use qcf_telemetry::faults;

#[test]
fn verify_state_detects_injected_bitflip() {
    let _g = faults::chaos_guard();
    faults::arm_from_spec("seed=5,state.chunk.bitflip@3").unwrap();
    let s = verify_state(8, 3, 3, "LZ4", ErrorBound::Abs(0.0), Some(2), None).unwrap();
    // verify_state disarms after the run; re-disarm is harmless.
    faults::disarm();
    assert_eq!(s.injected_bitflips, 1, "@3 fires exactly once");
    assert!(s.ok(), "detection contract failed: {s:?}");
    assert!(s.faults.decode_errors >= 1, "bitflip went undetected");
    assert!(s.settled);
}

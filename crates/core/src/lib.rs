//! # qcf-core — the paper's contribution
//!
//! An error-bounded compression framework for quantum circuit simulation
//! tensors (Shah et al., IPDPS'23 — see DESIGN.md at the workspace root):
//!
//! * [`stages`] / [`dict`] — pre-processing: zero collapse (P2), the
//!   quantization dictionary (P3, the big lever: QTensor tensors hold few
//!   distinct values) and block dedup (P4).
//! * [`framework`] — [`QcfCompressor`]: the configurable pipeline with a
//!   ratio mode (cuSZ backend, all stages) and a speed mode (cuSZx backend,
//!   single-pass stages), usable anywhere a
//!   [`Compressor`](compressors::Compressor) is — including inside
//!   `qtensor`'s compressed contraction.
//! * [`fidelity`] — first-order error-propagation model + noise-injection
//!   characterization of how tensor-level bounds move the final energy.
//! * [`adaptive`] — measurement-driven selection of the loosest bound that
//!   meets a user's energy-fidelity target.

pub mod adaptive;
pub mod dict;
pub mod fidelity;
pub mod framework;
pub mod stages;

pub use adaptive::{search_bound, AdaptiveResult};
pub use fidelity::{calibrate, measure_noise_impact, predict_energy_error};
pub use framework::{Mode, QcfCompressor, StageToggles, QCF_RATIO_ID, QCF_SPEED_ID};

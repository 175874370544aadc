//! # compressors — the nine (de)compressors of the evaluation
//!
//! Reimplementations of the compressor suite the paper benchmarks on an
//! A100, behind one [`Compressor`] trait:
//!
//! | name | class | scheme |
//! |------|-------|--------|
//! | [`cusz::CuSz`]       | error-bounded | Lorenzo dual-quant + Huffman |
//! | [`cuszx::CuSzx`]     | error-bounded | constant blocks + bit-packed residuals |
//! | [`cuzfp::CuZfp`]     | error-bounded | block transform + bit planes |
//! | [`lz4::Lz4`]         | lossless | LZ77, byte tokens |
//! | [`snappy::Snappy`]   | lossless | LZ77, tagged elements |
//! | [`gdeflate::GDeflate`] | lossless | LZ77 + dynamic Huffman |
//! | [`cascaded::Cascaded`] | lossless | RLE + delta + bit-pack |
//! | [`bitcomp::Bitcomp`] | lossless | XOR-delta + width blocks |
//! | [`dummy::Memcpy`]    | baseline | raw copy |
//!
//! GPU cost is charged through `gpu-model` kernels declared by each
//! implementation; quality metrics live in [`metrics`].

pub mod bitcomp;
pub mod cascaded;
pub mod cusz;
pub mod cuszx;
pub mod cuzfp;
pub mod dummy;
pub mod gdeflate;
pub mod lz4;
pub mod metrics;
pub mod registry;
pub mod snappy;
pub mod traits;

pub use metrics::{quality, round_trip, QualityMetrics, RoundTripReport};
pub use registry::{all_compressors, by_name, decompress_any, decompress_any_into};
pub use traits::{Compressor, CompressorKind, ErrorBound};

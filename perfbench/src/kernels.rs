//! Codec-kernel part of the traced pass: single-thread calls into the
//! `mjpeg` functions each pipeline stage runs, on the workload's own
//! frames, timed per block.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mjpeg::codec::{place_block, EntropyDecoder};
use mjpeg::dct::BLOCK_SIZE;
use mjpeg::pipeline::{coeffs_from_bytes, encode_coeff_batch, BatchView};
use mjpeg::quant::{
    dequantize_reorder, dequantize_reorder_scaled, fast_dequant_table, scaled_qtable,
};
use mjpeg::DctKind;

use crate::host::median;
use crate::workloads::Frames;

/// Blocks timed per pass, at most: enough for a pass to outlast the
/// clock's resolution by far, few enough for many passes.
const MAX_BLOCKS: usize = 40_000;

/// Median ns per block of each kernel.
pub struct KernelTimes {
    /// `codec::EntropyDecoder::next_block` (the decoder the pipeline's
    /// Fetch uses for the workload's kernel).
    pub huffman: f64,
    /// Dequantize + IDCT for the workload's `DctKind`.
    pub idct: f64,
    /// `codec::place_block`.
    pub reorder: f64,
    /// `encode_coeff_batch` + `BatchView::coeffs` + `coeffs_from_bytes`
    /// at the workload's batch size.
    pub wire: f64,
}

/// Time each kernel for about `budget` in total.
pub fn time_kernels(frames: &Frames, kind: DctKind, batch: usize, budget: Duration) -> KernelTimes {
    let blocks_per_frame = (frames.width / 8) * (frames.height / 8);
    let nframes =
        (MAX_BLOCKS / blocks_per_frame).clamp(1, frames.stream.len().saturating_sub(1).max(1));
    let data: Vec<&[u8]> = frames
        .stream
        .frames
        .iter()
        .skip(1)
        .take(nframes)
        .map(|f| f.data.as_slice())
        .collect();
    let nblocks = data.len() * blocks_per_frame;
    let per_kernel = budget / 4;

    let entropy = |d| match kind {
        DctKind::ReferenceFloat => EntropyDecoder::reference(d),
        DctKind::FastAan | DctKind::FastSimd => EntropyDecoder::new(d),
    };
    let decode_all = || {
        let mut zz = Vec::with_capacity(nblocks);
        for d in &data {
            let mut dec = entropy(d);
            for _ in 0..blocks_per_frame {
                zz.push(dec.next_block().expect("synthesized frames decode"));
            }
        }
        zz
    };
    let huffman = per_block(per_kernel, nblocks, || {
        black_box(decode_all());
    });

    let zz = decode_all();
    let qtable = scaled_qtable(frames.quality);
    let ftable = fast_dequant_table(&qtable);
    let idct_one = |z: &[i16; BLOCK_SIZE]| -> [u8; BLOCK_SIZE] {
        match kind {
            DctKind::ReferenceFloat => mjpeg::dct::idct_to_pixels(&dequantize_reorder(z, &qtable)),
            DctKind::FastAan => {
                mjpeg::dct::idct_scaled_to_pixels(&dequantize_reorder_scaled(z, &ftable))
            }
            DctKind::FastSimd => {
                mjpeg::simd::idct_scaled_to_pixels_simd(&dequantize_reorder_scaled(z, &ftable))
            }
        }
    };
    let idct = per_block(per_kernel, nblocks, || {
        for z in &zz {
            black_box(idct_one(black_box(z)));
        }
    });

    let pixels: Vec<[u8; BLOCK_SIZE]> = zz.iter().map(idct_one).collect();
    let mut frame = vec![0u8; frames.width * frames.height];
    let reorder = per_block(per_kernel, nblocks, || {
        for (i, px) in pixels.iter().enumerate() {
            place_block(
                &mut frame,
                frames.width,
                i % blocks_per_frame,
                black_box(px),
            );
        }
        black_box(&frame);
    });

    let records: Vec<(u32, u32, [i32; BLOCK_SIZE])> = zz
        .iter()
        .enumerate()
        .map(|(i, z)| {
            let c = dequantize_reorder_scaled(z, &ftable);
            (
                (i / blocks_per_frame) as u32,
                (i % blocks_per_frame) as u32,
                c,
            )
        })
        .collect();
    let wire = per_block(per_kernel, nblocks, || {
        for chunk in records.chunks(batch.max(1)) {
            let msg = encode_coeff_batch(black_box(chunk));
            let view = BatchView::coeffs(&msg).expect("well-formed batch");
            for i in 0..view.len() {
                let (_, _, b) = view.block(i);
                black_box(coeffs_from_bytes(&b).expect("well-formed block"));
            }
        }
    });

    KernelTimes {
        huffman,
        idct,
        reorder,
        wire,
    }
}

/// Run `pass` (which handles `blocks` blocks) repeatedly for about
/// `budget`, at least five times; median ns per block.
fn per_block(budget: Duration, blocks: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches and lazily built tables
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_nanos() as f64 / blocks as f64);
    }
    median(&samples)
}

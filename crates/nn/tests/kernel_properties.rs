//! Bit-identity properties of the blocked hot-path kernels.
//!
//! The cache-blocked matmul and the restructured convolution must be
//! *bit-identical* — not merely close — to straightforward reference
//! loops: trial results feed the golden report/trace suites, which pin
//! exact bytes. Blocking is only allowed over output rows/columns, never
//! over the reduction dimension, and these properties enforce that
//! invariant for arbitrary shapes and seeds (including shapes straddling
//! the block boundaries and inputs with exact zeros, which exercise the
//! zero-skip path).

use std::hint::black_box;
use std::time::Instant;

use edgetune_nn::layer::{Conv2d, Layer};
use edgetune_nn::tensor::Tensor;
use edgetune_util::rng::SeedStream;
use proptest::prelude::*;

/// Strategy producing a random 2-D tensor with the given shape.
fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn(&[rows, cols], 1.0, SeedStream::new(seed))
}

/// Zeroes roughly `1/3` of the elements so the kernels' zero-coefficient
/// skip path is exercised (post-ReLU activations look like this).
fn sparsify(t: &Tensor) -> Tensor {
    let data = t
        .data()
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 3 == 0 { 0.0 } else { v })
        .collect();
    Tensor::from_vec(data, t.shape())
}

fn assert_bits_equal(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} differs: {x} vs {y}");
    }
}

/// Reference convolution: the pre-refactor per-output-element loop with
/// inline padding bounds checks, kept here as the ground truth.
fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: &[f32],
    stride: usize,
    padding: usize,
) -> Tensor {
    let ishape = input.shape();
    let (batch, in_c, ih, iw) = (ishape[0], ishape[1], ishape[2], ishape[3]);
    let wshape = weight.shape();
    let (out_c, k) = (wshape[0], wshape[2]);
    let oh = (ih + 2 * padding - k) / stride + 1;
    let ow = (iw + 2 * padding - k) / stride + 1;
    let mut out = Tensor::zeros(&[batch, out_c, oh, ow]);
    let xd = input.data();
    let wd = weight.data();
    let od = out.data_mut();
    for n in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= ih as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= iw as isize {
                                    continue;
                                }
                                acc += xd[((n * in_c + ic) * ih + iy as usize) * iw + ix as usize]
                                    * wd[((oc * in_c + ic) * k + ky) * k + kx];
                            }
                        }
                    }
                    od[((n * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Median wall time of `runs` calls of `f`, in nanoseconds.
fn median_ns(runs: usize, mut f: impl FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Blocking exists to be faster than the cache-hostile reference loop;
/// bit-identity alone would let a regression to the naive loop pass.
/// Timing is only meaningful in an optimised build, hence `--release`.
/// The kernel must win by at least 2× (it is about 11× on a 2.1 GHz
/// Xeon): a bare `blocked < naive` passes about half the time when both
/// sides run the same loop, so it cannot catch that regression.
#[test]
#[ignore = "timing: CI runs it in release"]
fn blocked_matmul_beats_the_naive_kernel() {
    let a = tensor(256, 256, 11);
    let b = tensor(256, 256, 12);
    let blocked = median_ns(15, || {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    let naive = median_ns(15, || {
        black_box(black_box(&a).matmul_naive(black_box(&b)));
    });
    assert!(
        2 * blocked < naive,
        "blocked 256x256 matmul ({blocked} ns) is not 2x faster than naive ({naive} ns)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn blocked_matmul_handles_zero_skip_identically(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..500,
    ) {
        let a = sparsify(&tensor(m, k, seed));
        let b = sparsify(&tensor(k, n, seed + 1));
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn matmul_spanning_block_boundaries(
        dm in 0usize..3,
        dn in 0usize..3,
        seed in 0u64..100,
    ) {
        // Shapes straddling the 64-row / 128-column tile edges.
        let (m, n) = (63 + dm, 127 + dn);
        let a = tensor(m, 9, seed);
        let b = tensor(9, n, seed + 1);
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b));
    }

    #[test]
    fn matmul_into_matches_matmul(
        m in 1usize..16,
        k in 1usize..16,
        n in 1usize..16,
        seed in 0u64..500,
    ) {
        let a = tensor(m, k, seed);
        let b = tensor(k, n, seed + 1);
        // Stale contents must not leak into the result.
        let mut out = Tensor::full(&[m, n], f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_bits_equal(&out, &a.matmul(&b));
    }

    #[test]
    fn conv2d_forward_is_bit_identical_to_reference(
        in_c in 1usize..3,
        out_c in 1usize..3,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        extra in 0usize..4,
        seed in 0u64..200,
    ) {
        let side = k + extra.max(2 * padding);
        let x = sparsify(&Tensor::randn(&[2, in_c, side, side], 1.0, SeedStream::new(seed)));
        let mut conv = Conv2d::new(in_c, out_c, k, stride, padding, SeedStream::new(seed + 1));
        let mut weight = None;
        let mut bias = None;
        conv.visit_params(&mut |p, _| {
            if p.shape().len() == 4 {
                weight = Some(p.clone());
            } else {
                // Non-zero biases so the accumulator seed is exercised.
                for (c, b) in p.data_mut().iter_mut().enumerate() {
                    *b = c as f32 * 0.25 - 0.5;
                }
                bias = Some(p.data().to_vec());
            }
        });
        let got = conv.forward(&x, true);
        let want = conv2d_reference(
            &x,
            weight.as_ref().expect("conv has a weight"),
            bias.as_ref().expect("conv has a bias"),
            stride,
            padding,
        );
        assert_bits_equal(&got, &want);
    }
}

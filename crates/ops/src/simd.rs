//! Fixed-width SIMD lane bundles for the optimized kernels.
//!
//! The build environment has no registry access and the workspace targets
//! stable Rust, so this module provides the `std::simd` subset the kernels
//! need as `[f32; N]` wrappers. On `x86_64` (where SSE2 is part of every
//! target) the lane-wise `+ - * /` and [`F32Lanes::sqrt`] of any width that
//! is a multiple of 4 are explicit `_mm_*_ps` instructions on 4-lane chunks;
//! everywhere else, and at width 1, they are fixed-trip-count lane loops.
//! Auto-vectorization alone is not enough here: the packed conv's inner
//! loop kept lane shuffles and stack spills at the default target and went
//! fully scalar under `-C target-cpu=x86-64-v3`. [`F32x8`] and [`F32x4`]
//! are the two widths the microkernels use ([`LANES`] elements per bundle
//! for the main loop, a 4-wide pass plus a scalar tail for remainders).
//!
//! # The determinism contract
//!
//! Lanes always map to **independent output elements** — never to partial
//! sums of one reduction. Each lane executes exactly the scalar kernel's
//! operation sequence on its own element: `acc = acc + x * w` is two
//! distinct float ops per lane, and nothing here emits a fused
//! multiply-add, a reassociated sum, a reciprocal approximation or a masked
//! skip. The SSE instructions round like their scalar operators (nothing
//! touches the MXCSR rounding or flush-to-zero modes), so results are
//! bit-identical between the SIMD and scalar paths, at every lane width and
//! every thread count. The one bit pattern neither path fixes is the
//! payload of a NaN computed from two NaN operands: Rust leaves open whose
//! payload propagates, and LLVM may commute the operands of either form.
//! This extends the thread-level output-ownership rule of
//! [`crate::parallel`] down to the instruction level. The engine-wide
//! escape hatch (`ExecOptions::force_scalar` in `dnnf-runtime`) exists so
//! the differential suites can assert that equivalence at tolerance zero,
//! not because the paths are expected to differ.

use std::ops::{Add, Div, Mul, Sub};

/// Lane count of the wide bundle ([`F32x8`]) — the unit the microkernels'
/// main loops advance by.
pub const LANES: usize = 8;

/// A bundle of `N` independent `f32` lanes, processed in lockstep.
///
/// Arithmetic is element-wise and unfused; lane `l` of a result depends only
/// on lane `l` of the operands, via the same `f32` operation the scalar
/// kernel performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32Lanes<const N: usize>([f32; N]);

/// Eight-lane `f32` bundle; on `x86_64` two SSE registers, each operation
/// two 4-lane instructions.
pub type F32x8 = F32Lanes<8>;
/// Four-lane `f32` bundle (one SSE register); used for remainders.
pub type F32x4 = F32Lanes<4>;

/// The lane-wise arithmetic of [`F32Lanes`], as one IEEE single-precision
/// operation per lane.
#[derive(Clone, Copy)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    /// Unary: reads only the first operand.
    Sqrt,
}

impl Arith {
    /// The scalar operator on one lane.
    #[inline(always)]
    fn scalar(self, x: f32, y: f32) -> f32 {
        match self {
            Arith::Add => x + y,
            Arith::Sub => x - y,
            Arith::Mul => x * y,
            Arith::Div => x / y,
            Arith::Sqrt => x.sqrt(),
        }
    }
}

impl<const N: usize> F32Lanes<N> {
    /// `op` on every lane: an SSE instruction per 4-lane chunk where the
    /// target has SSE2 and `N % 4 == 0` (a compile-time branch), the scalar
    /// operator per lane otherwise. Both round the same way, so the bits
    /// agree.
    #[inline(always)]
    fn lane_wise(self, op: Arith, rhs: Self) -> Self {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if N.is_multiple_of(4) {
            return F32Lanes(sse::zip(op, self.0, rhs.0));
        }
        let mut lanes = self.0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = op.scalar(*lane, rhs.0[l]);
        }
        F32Lanes(lanes)
    }

    /// All lanes set to `v`.
    #[inline]
    #[must_use]
    pub fn splat(v: f32) -> Self {
        F32Lanes([v; N])
    }

    /// Loads `N` consecutive elements starting at `slice[0]`.
    ///
    /// # Panics
    ///
    /// Panics when `slice` has fewer than `N` elements.
    #[inline]
    #[must_use]
    pub fn load(slice: &[f32]) -> Self {
        let mut lanes = [0.0f32; N];
        lanes.copy_from_slice(&slice[..N]);
        F32Lanes(lanes)
    }

    /// Loads `N` elements at `data[base + l * stride]` for lane `l` — the
    /// gather form for strided access patterns (`stride == 0` splats
    /// `data[base]`, `stride == 1` is equivalent to [`F32Lanes::load`]).
    ///
    /// # Panics
    ///
    /// Panics when `base + (N - 1) * stride` is out of bounds.
    #[inline]
    #[must_use]
    pub fn gather(data: &[f32], base: usize, stride: usize) -> Self {
        let mut lanes = [0.0f32; N];
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = data[base + l * stride];
        }
        F32Lanes(lanes)
    }

    /// Stores the lanes into the first `N` slots of `slice`.
    ///
    /// # Panics
    ///
    /// Panics when `slice` has fewer than `N` elements.
    #[inline]
    pub fn store(self, slice: &mut [f32]) {
        slice[..N].copy_from_slice(&self.0);
    }

    /// The lanes as an array (lane `l` at index `l`).
    #[inline]
    #[must_use]
    pub const fn to_array(self) -> [f32; N] {
        self.0
    }

    /// Builds a bundle from per-lane values (lane `l` from index `l`).
    #[inline]
    #[must_use]
    pub const fn from_array(lanes: [f32; N]) -> Self {
        F32Lanes(lanes)
    }

    /// Applies a scalar function to every lane. The function is invoked
    /// once per lane in lane order — this is the bridge for kernels (e.g.
    /// transcendentals) that have no vector form but still benefit from the
    /// surrounding loads/stores being lane-blocked.
    #[inline]
    #[must_use]
    pub fn map(self, mut f: impl FnMut(f32) -> f32) -> Self {
        let mut lanes = self.0;
        for lane in &mut lanes {
            *lane = f(*lane);
        }
        F32Lanes(lanes)
    }

    /// Lane-wise maximum via [`f32::max`] — exactly the scalar pooling
    /// kernel's per-tap operation (IEEE `maxNum`: a NaN operand yields the
    /// other operand), applied independently per lane.
    #[inline]
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.max(rhs.0[l]);
        }
        F32Lanes(lanes)
    }

    /// Lane-wise minimum via [`f32::min`] — the `ReduceMin` fold step, the
    /// mirror of [`F32Lanes::max`].
    #[inline]
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.min(rhs.0[l]);
        }
        F32Lanes(lanes)
    }

    /// Lane-wise IEEE square root — the scalar kernel's [`f32::sqrt`],
    /// correctly rounded per lane.
    #[inline]
    #[must_use]
    pub fn sqrt(self) -> Self {
        self.lane_wise(Arith::Sqrt, self)
    }
}

impl<const N: usize> Add for F32Lanes<N> {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Add, rhs)
    }
}

impl<const N: usize> Sub for F32Lanes<N> {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Sub, rhs)
    }
}

impl<const N: usize> Mul for F32Lanes<N> {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Mul, rhs)
    }
}

impl<const N: usize> Div for F32Lanes<N> {
    type Output = Self;

    /// Lane-wise IEEE division — one rounding step per lane, identical to
    /// the scalar kernels' `acc / denom` (the averaging pools divide; a
    /// reciprocal-multiply would round differently and break bit-identity).
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Div, rhs)
    }
}

/// The SSE lowering of [`Arith`]. SSE2 is part of every `x86_64` target,
/// so this needs no runtime detection.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_div_ps, _mm_loadu_ps, _mm_mul_ps, _mm_sqrt_ps, _mm_storeu_ps, _mm_sub_ps,
    };

    use super::Arith;

    /// `a[c] = op(a[c], b[c])` for each 4-lane chunk `c` (`N % 4 == 0`).
    #[inline(always)]
    pub(super) fn zip<const N: usize>(op: Arith, mut a: [f32; N], b: [f32; N]) -> [f32; N] {
        for (x, y) in a.chunks_exact_mut(4).zip(b.chunks_exact(4)) {
            // SAFETY: this module only compiles where SSE2 (and so SSE) is
            // enabled, and `chunks_exact(4)` yields four `f32`s per chunk,
            // so the unaligned 16-byte loads and the store stay in bounds.
            unsafe {
                let (v, w) = (_mm_loadu_ps(x.as_ptr()), _mm_loadu_ps(y.as_ptr()));
                let r = match op {
                    Arith::Add => _mm_add_ps(v, w),
                    Arith::Sub => _mm_sub_ps(v, w),
                    Arith::Mul => _mm_mul_ps(v, w),
                    Arith::Div => _mm_div_ps(v, w),
                    Arith::Sqrt => _mm_sqrt_ps(v),
                };
                _mm_storeu_ps(x.as_mut_ptr(), r);
            }
        }
        a
    }
}

/// Tiles the columns `[0, total)` of one row and calls `tile(start, width)`
/// on each: single columns outside the interior `[lo, hi)`; inside it as
/// many `widths[0]`-wide tiles as fit, then `widths[1]`-wide ones and so on,
/// then single columns again. Width 1 is every lane kernel's scalar instance,
/// so borders, lane remainders and the scalar mode (`widths` empty) take the
/// same path.
#[inline]
pub fn col_tiles(
    total: usize,
    lo: usize,
    hi: usize,
    widths: &[usize],
    mut tile: impl FnMut(usize, usize),
) {
    (0..lo).for_each(|at| tile(at, 1));
    let mut at = lo;
    for &width in widths {
        while at + width <= hi {
            tile(at, width);
            at += width;
        }
    }
    (at..total).for_each(|at| tile(at, 1));
}

/// The widest `f32` lane count the compilation target's instruction set can
/// execute as one vector operation (compile-time: this reflects the enabled
/// `target_feature`s, not runtime CPU detection).
///
/// The lane-blocked kernels run everywhere — on narrower targets the 8-lane
/// bundles simply lower to more instructions — but performance gates (the
/// `simd_speedup` floor in `bench_exec`) only arm where this is at least 8,
/// i.e. where the wide path maps onto real vector registers. Build with
/// `RUSTFLAGS="-C target-cpu=native"` to enable the host's full width.
#[must_use]
pub const fn detected_simd_width() -> usize {
    if cfg!(target_feature = "avx512f") {
        16
    } else if cfg!(any(target_feature = "avx2", target_feature = "avx")) {
        8
    } else if cfg!(any(target_feature = "sse2", target_arch = "aarch64")) {
        4
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let v = F32x8::load(&data[2..]);
        assert_eq!(v.to_array(), [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let mut out = [0.0f32; 10];
        v.store(&mut out[1..]);
        assert_eq!(&out[1..9], &data[2..10]);
        assert_eq!(F32x4::splat(1.5).to_array(), [1.5; 4]);
    }

    #[test]
    fn gather_covers_splat_contiguous_and_strided() {
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        assert_eq!(F32x4::gather(&data, 5, 0).to_array(), [5.0; 4]);
        assert_eq!(F32x4::gather(&data, 3, 1).to_array(), [3.0, 4.0, 5.0, 6.0]);
        assert_eq!(
            F32x4::gather(&data, 1, 7).to_array(),
            [1.0, 8.0, 15.0, 22.0]
        );
    }

    #[test]
    fn arithmetic_is_lane_wise_and_bit_identical_to_scalar() {
        let a: Vec<f32> = (0..8).map(|i| 0.1f32 * i as f32 - 0.3).collect();
        let b: Vec<f32> = (0..8).map(|i| 1.0 - 0.07f32 * i as f32).collect();
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        let sum = (va + vb).to_array();
        let prod = (va * vb).to_array();
        for l in 0..8 {
            assert_eq!(sum[l].to_bits(), (a[l] + b[l]).to_bits());
            assert_eq!(prod[l].to_bits(), (a[l] * b[l]).to_bits());
        }
    }

    #[test]
    fn mul_then_add_matches_the_scalar_accumulation_sequence() {
        // The microkernels' accumulation step: acc = acc + x * w, two
        // separate rounding steps per lane — never a fused multiply-add.
        let x = F32x4::load(&[1e-8, 2.5, -3.75, 0.1]);
        let w = F32x4::splat(3.000_000_2);
        let acc = F32x4::splat(1.0);
        let vec = (acc + x * w).to_array();
        for (l, &xv) in [1e-8f32, 2.5, -3.75, 0.1].iter().enumerate() {
            let scalar = 1.0f32 + xv * 3.000_000_2;
            assert_eq!(vec[l].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn max_and_div_match_the_scalar_operations_per_lane() {
        let a = F32x4::load(&[1.0, -2.0, f32::NEG_INFINITY, 0.3]);
        let b = F32x4::load(&[0.5, -1.5, 7.0, 0.3]);
        let m = a.max(b).to_array();
        let n = a.min(b).to_array();
        let d = (a / b).to_array();
        for (l, (&av, &bv)) in [1.0f32, -2.0, f32::NEG_INFINITY, 0.3]
            .iter()
            .zip(&[0.5f32, -1.5, 7.0, 0.3])
            .enumerate()
        {
            assert_eq!(m[l].to_bits(), av.max(bv).to_bits());
            assert_eq!(n[l].to_bits(), av.min(bv).to_bits());
            assert_eq!(d[l].to_bits(), (av / bv).to_bits());
        }
        // NaN taps follow f32::max (the other operand wins), as in MaxPool.
        let n = F32x4::splat(f32::NAN).max(F32x4::splat(2.0)).to_array();
        assert_eq!(n, [2.0; 4]);
    }

    /// ±0, ±1, ±inf, two quiet NaN payloads, the smallest and largest
    /// subnormals, `f32::MAX` and `1 ± ulp`.
    const SPECIAL: [f32; 13] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffc1_2345),
        f32::from_bits(0x0000_0001),
        f32::from_bits(0x007f_ffff),
        f32::MAX,
        f32::from_bits(0x3f80_0001),
        f32::from_bits(0x3f7f_ffff),
    ];

    /// Every `(a, b)` pair of [`SPECIAL`] values, as two flat lane arrays
    /// padded with `1.0` to whole 8-lane bundles.
    fn special_pairs() -> (Vec<f32>, Vec<f32>) {
        let (mut a, mut b): (Vec<f32>, Vec<f32>) = SPECIAL
            .iter()
            .flat_map(|&x| SPECIAL.iter().map(move |&y| (x, y)))
            .unzip();
        while a.len() % 8 != 0 {
            a.push(1.0);
            b.push(1.0);
        }
        (std::hint::black_box(a), std::hint::black_box(b))
    }

    /// Every bundle operation at width `N` against the scalar operator, bit
    /// for bit, over every special-value pair.
    fn special_values_match_the_scalar_operators<const N: usize>() {
        type Op<const N: usize> = (
            &'static str,
            fn(F32Lanes<N>, F32Lanes<N>) -> F32Lanes<N>,
            fn(f32, f32) -> f32,
        );
        let ops: [Op<N>; 7] = [
            ("add", |x, y| x + y, |x, y| x + y),
            ("sub", |x, y| x - y, |x, y| x - y),
            ("mul", |x, y| x * y, |x, y| x * y),
            ("div", |x, y| x / y, |x, y| x / y),
            ("max", F32Lanes::max, f32::max),
            ("min", F32Lanes::min, f32::min),
            ("sqrt", |x, _| x.sqrt(), |x, _| x.sqrt()),
        ];
        let (a, b) = special_pairs();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for at in (0..a.len()).step_by(N) {
            let (x, y) = (F32Lanes::<N>::load(&a[at..]), F32Lanes::<N>::load(&b[at..]));
            assert_eq!(bits(&x.to_array()), bits(&a[at..at + N]), "load");
            assert_eq!(
                bits(&F32Lanes::<N>::gather(&b, at, 1).to_array()),
                bits(&b[at..at + N]),
                "gather"
            );
            let mut stored = vec![0.0f32; N];
            y.store(&mut stored);
            assert_eq!(bits(&stored), bits(&b[at..at + N]), "store");
            for (name, vector, scalar) in &ops {
                let got = vector(x, y).to_array();
                for l in 0..N {
                    let (xv, yv) = (a[at + l], b[at + l]);
                    let want = scalar(xv, yv).to_bits();
                    // When both operands are NaN, Rust leaves open whose
                    // payload propagates (LLVM may commute the operands of
                    // either form), so either operand's NaN is the answer.
                    let either = xv.is_nan() && yv.is_nan() && *name != "sqrt";
                    let ok = if either {
                        [xv.to_bits(), yv.to_bits()].contains(&got[l].to_bits())
                    } else {
                        got[l].to_bits() == want
                    };
                    assert!(
                        ok,
                        "{name}({xv:e}, {yv:e}) at width {N}: {:#x} vs {want:#x}",
                        got[l].to_bits()
                    );
                }
            }
        }
        for v in SPECIAL {
            let splat = F32Lanes::<N>::splat(v).to_array();
            assert!(splat.iter().all(|s| s.to_bits() == v.to_bits()), "splat");
        }
    }

    #[test]
    fn special_values_are_bit_identical_to_scalar_at_every_width() {
        special_values_match_the_scalar_operators::<8>();
        special_values_match_the_scalar_operators::<4>();
        special_values_match_the_scalar_operators::<1>();
    }

    #[test]
    fn map_applies_in_lane_order() {
        let mut order = Vec::new();
        let v = F32x4::load(&[1.0, 2.0, 3.0, 4.0]).map(|x| {
            order.push(x);
            x * 2.0
        });
        assert_eq!(v.to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(order, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn detected_width_is_a_sane_power_of_two() {
        let w = detected_simd_width();
        assert!(w.is_power_of_two() && w <= 16);
    }
}

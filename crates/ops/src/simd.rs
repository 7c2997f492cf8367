//! Fixed-width SIMD lane bundles for the optimized kernels.
//!
//! The build environment has no registry access and the workspace targets
//! stable Rust, so this module provides the `std::simd` subset the kernels
//! need as `[f32; N]` wrappers. A bundle's lane-wise `+ - * /` and
//! [`F32Lanes::sqrt`] lower to the instruction set named by its [`Isa`]
//! type parameter:
//!
//! * [`Sse2`] (part of every `x86_64` target, so free to use): explicit
//!   `_mm_*_ps` instructions on each 4-lane chunk of a width that is a
//!   multiple of 4;
//! * [`Avx`] (chosen at run time, only where the CPU has it): one
//!   `_mm256_*_ps` instruction per 8-lane chunk, the SSE lowering for a
//!   4-lane bundle;
//!
//! and fixed-trip-count lane loops at width 1 and on other architectures.
//! Auto-vectorization alone is not enough here: the packed conv's inner
//! loop kept lane shuffles and stack spills at the default target and went
//! fully scalar under `-C target-cpu=x86-64-v3`. [`F32x8`] and [`F32x4`]
//! are the two widths the microkernels use ([`LANES`] elements per bundle
//! for the main loop, a 4-wide pass plus a scalar tail for remainders).
//!
//! A kernel is written once, generic over `I: Isa`, and runs in the ISA a
//! launch picks (`WorkPool::avx`; the kernels that take `Sse2` alone always
//! run the 128-bit instance). An [`Isa`] value is a token: [`Sse2`] is
//! free to make, an [`Avx`] comes only from [`Avx::detect`], and a bundle is
//! only made from a token, so no AVX instruction runs on a CPU without AVX.
//! [`Isa::enter`] runs a kernel body through the one
//! `#[target_feature(enable = "avx")]` function of the crate, so the lane
//! arithmetic inlined into it is emitted as 256-bit instructions.
//!
//! # The determinism contract
//!
//! Lanes always map to **independent output elements** — never to partial
//! sums of one reduction. Each lane executes exactly the scalar kernel's
//! operation sequence on its own element: `acc = acc + x * w` is two
//! distinct float ops per lane, and nothing here emits a fused
//! multiply-add, a reassociated sum, a reciprocal approximation or a masked
//! skip. The AVX instance enables the `avx` target feature only, **never
//! `fma`**: `_mm256_mul_ps` and `_mm256_add_ps` are the same two IEEE
//! roundings as the SSE and scalar forms. None of the forms touches the
//! MXCSR rounding or flush-to-zero modes, so results are bit-identical
//! between the AVX, SSE and scalar paths, at every lane width and every
//! thread count. The one bit pattern no path fixes is the payload of a NaN
//! computed from two NaN operands: Rust leaves open whose payload
//! propagates, and LLVM may commute the operands of either form. This
//! extends the thread-level output-ownership rule of [`crate::parallel`]
//! down to the instruction level. The engine-wide escape hatches
//! (`ExecOptions::force_scalar` and `ExecOptions::force_sse` in
//! `dnnf-runtime`) exist so the differential suites can assert that
//! equivalence at tolerance zero, not because the paths are expected to
//! differ.

use std::marker::PhantomData;
use std::ops::{Add, Div, Mul, Sub};

/// Lane count of the wide bundle ([`F32x8`]) — the unit the microkernels'
/// main loops advance by.
pub const LANES: usize = 8;

/// A bundle of `N` independent `f32` lanes, processed in lockstep with the
/// arithmetic of the instruction set `I`.
///
/// Arithmetic is element-wise and unfused; lane `l` of a result depends only
/// on lane `l` of the operands, via the same `f32` operation the scalar
/// kernel performs. Bundles are made through an [`Isa`] token
/// ([`Isa::splat`], [`Isa::load`], …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32Lanes<const N: usize, I = Sse2>([f32; N], PhantomData<I>);

/// Eight-lane `f32` bundle; at [`Sse2`] two SSE registers, each operation
/// two 4-lane instructions.
pub type F32x8 = F32Lanes<8>;
/// Four-lane `f32` bundle (one SSE register); used for remainders.
pub type F32x4 = F32Lanes<4>;

/// The 128-bit SSE instruction set, part of every `x86_64` target (plain
/// lane loops elsewhere). Free to make: `Sse2` is the token every host has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sse2;

/// The 256-bit AVX instruction set. Only [`Avx::detect`] makes one, so a
/// value proves the CPU runs AVX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx(());

impl Avx {
    /// The AVX token where the CPU (and the OS) support `avx`, `None`
    /// elsewhere. `std` caches the CPUID probe, so after the first call this
    /// is one atomic load; it checks `avx` alone, never `fma`.
    #[inline]
    #[must_use]
    pub fn detect() -> Option<Avx> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Some(Avx(()));
        }
        None
    }
}

/// An instruction set the lane bundles lower to, as a zero-sized token
/// ([`Sse2`] or [`Avx`]). Kernels are generic over it and take the token as
/// a value; sealed, so no other type can claim an instruction set.
pub trait Isa: Copy + Send + Sync + PartialEq + std::fmt::Debug + lower::Lower {
    /// Whether one [`LANES`]-wide bundle is one register (AVX), rather than
    /// two (SSE). Kernels size their register-blocked tiles by it.
    const WIDE: bool;

    /// Runs `f` compiled for this instruction set. [`Sse2`] calls it;
    /// [`Avx`] calls it from a `#[target_feature(enable = "avx")]`
    /// function, so what `f` inlines (the kernels mark their lane loops
    /// `#[inline(always)]`) is emitted with 256-bit registers.
    fn enter<R>(self, f: impl FnOnce() -> R) -> R;

    /// All lanes set to `v`.
    #[inline(always)]
    #[must_use]
    fn splat<const N: usize>(self, v: f32) -> F32Lanes<N, Self> {
        F32Lanes([v; N], PhantomData)
    }

    /// Loads `N` consecutive elements starting at `slice[0]`.
    ///
    /// # Panics
    ///
    /// Panics when `slice` has fewer than `N` elements.
    #[inline(always)]
    #[must_use]
    fn load<const N: usize>(self, slice: &[f32]) -> F32Lanes<N, Self> {
        let mut lanes = [0.0f32; N];
        lanes.copy_from_slice(&slice[..N]);
        F32Lanes(lanes, PhantomData)
    }

    /// Loads `N` elements at `data[base + l * stride]` for lane `l` — the
    /// gather form for strided access patterns (`stride == 0` splats
    /// `data[base]`, `stride == 1` is equivalent to [`Isa::load`]).
    ///
    /// # Panics
    ///
    /// Panics when `base + (N - 1) * stride` is out of bounds.
    #[inline(always)]
    #[must_use]
    fn gather<const N: usize>(self, data: &[f32], base: usize, stride: usize) -> F32Lanes<N, Self> {
        let mut lanes = [0.0f32; N];
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = data[base + l * stride];
        }
        F32Lanes(lanes, PhantomData)
    }
}

impl Isa for Sse2 {
    const WIDE: bool = false;

    #[inline(always)]
    fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Isa for Avx {
    const WIDE: bool = true;

    #[inline(always)]
    fn enter<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an `Avx` value exists only where `Avx::detect` found AVX.
        return unsafe { avx::enter(f) };
        #[cfg(not(target_arch = "x86_64"))]
        f()
    }
}

/// The lowering of bundle arithmetic per instruction set; private, which
/// seals [`Isa`].
mod lower {
    /// The lane-wise arithmetic of [`super::F32Lanes`], as one IEEE
    /// single-precision operation per lane.
    #[derive(Clone, Copy)]
    pub enum Arith {
        Add,
        Sub,
        Mul,
        Div,
        /// Unary: reads only the first operand.
        Sqrt,
    }

    /// `a[l] = op(a[l], b[l])` on every lane.
    pub trait Lower {
        fn zip<const N: usize>(op: Arith, a: [f32; N], b: [f32; N]) -> [f32; N];
    }

    /// The scalar operator on every lane.
    #[inline(always)]
    fn lane_loop<const N: usize>(op: Arith, mut a: [f32; N], b: [f32; N]) -> [f32; N] {
        for (x, &y) in a.iter_mut().zip(&b) {
            *x = match op {
                Arith::Add => *x + y,
                Arith::Sub => *x - y,
                Arith::Mul => *x * y,
                Arith::Div => *x / y,
                Arith::Sqrt => x.sqrt(),
            };
        }
        a
    }

    impl Lower for super::Sse2 {
        /// An SSE instruction per 4-lane chunk where the target has SSE2
        /// and `N % 4 == 0` (a compile-time branch), the lane loop
        /// otherwise. Both round the same way, so the bits agree.
        #[inline(always)]
        fn zip<const N: usize>(op: Arith, a: [f32; N], b: [f32; N]) -> [f32; N] {
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            if N.is_multiple_of(4) {
                return super::sse::zip(op, a, b);
            }
            lane_loop(op, a, b)
        }
    }

    impl Lower for super::Avx {
        /// An AVX instruction per 8-lane chunk where `N % 8 == 0`, the SSE
        /// lowering otherwise.
        #[inline(always)]
        fn zip<const N: usize>(op: Arith, a: [f32; N], b: [f32; N]) -> [f32; N] {
            #[cfg(target_arch = "x86_64")]
            if N.is_multiple_of(8) {
                // SAFETY: a bundle of this type is only made from an `Avx`
                // token, and only `Avx::detect` makes one.
                return unsafe { super::avx::zip(op, a, b) };
            }
            super::Sse2::zip(op, a, b)
        }
    }
}

use lower::Arith;

impl<const N: usize, I: Isa> F32Lanes<N, I> {
    #[inline(always)]
    fn lane_wise(self, op: Arith, rhs: Self) -> Self {
        F32Lanes(I::zip(op, self.0, rhs.0), PhantomData)
    }

    /// Stores the lanes into the first `N` slots of `slice`.
    ///
    /// # Panics
    ///
    /// Panics when `slice` has fewer than `N` elements.
    #[inline(always)]
    pub fn store(self, slice: &mut [f32]) {
        slice[..N].copy_from_slice(&self.0);
    }

    /// The lanes as an array (lane `l` at index `l`).
    #[inline(always)]
    #[must_use]
    pub const fn to_array(self) -> [f32; N] {
        self.0
    }

    /// Lane-wise maximum via [`f32::max`] — exactly the scalar pooling
    /// kernel's per-tap operation (IEEE `maxNum`: a NaN operand yields the
    /// other operand), applied independently per lane.
    #[inline(always)]
    #[must_use]
    pub fn max(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.max(rhs.0[l]);
        }
        F32Lanes(lanes, PhantomData)
    }

    /// Lane-wise minimum via [`f32::min`] — the `ReduceMin` fold step, the
    /// mirror of [`F32Lanes::max`].
    #[inline(always)]
    #[must_use]
    pub fn min(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = lane.min(rhs.0[l]);
        }
        F32Lanes(lanes, PhantomData)
    }

    /// Lane-wise IEEE square root — the scalar kernel's [`f32::sqrt`],
    /// correctly rounded per lane.
    #[inline(always)]
    #[must_use]
    pub fn sqrt(self) -> Self {
        self.lane_wise(Arith::Sqrt, self)
    }
}

impl<const N: usize, I: Isa> Add for F32Lanes<N, I> {
    type Output = Self;

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Add, rhs)
    }
}

impl<const N: usize, I: Isa> Sub for F32Lanes<N, I> {
    type Output = Self;

    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Sub, rhs)
    }
}

impl<const N: usize, I: Isa> Mul for F32Lanes<N, I> {
    type Output = Self;

    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self.lane_wise(Arith::Mul, rhs)
    }
}

impl<const N: usize, I: Isa> Div for F32Lanes<N, I> {
    type Output = Self;

    /// Lane-wise IEEE division — one rounding step per lane, identical to
    /// the scalar kernels' `acc / denom` (the averaging pools divide; a
    /// reciprocal-multiply would round differently and break bit-identity).
    #[inline(always)]
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

/// The AVX lowering of [`Arith`] and the crate's one
/// `#[target_feature(enable = "avx")]` function. `fma` is never enabled:
/// a multiply and an add stay two roundings.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_sqrt_ps,
        _mm256_storeu_ps, _mm256_sub_ps,
    };

    use super::Arith;

    /// Calls `f` with AVX enabled: what inlines into it may use 256-bit
    /// registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX (callers hold an `Avx` token).
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn enter<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// `a[c] = op(a[c], b[c])` for each 8-lane chunk `c` (`N % 8 == 0`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX (callers hold an `Avx` bundle).
    #[inline(always)]
    pub(super) unsafe fn zip<const N: usize>(op: Arith, mut a: [f32; N], b: [f32; N]) -> [f32; N] {
        for (x, y) in a.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
            // SAFETY: the caller guarantees AVX, and `chunks_exact(8)`
            // yields eight `f32`s per chunk, so the unaligned 32-byte loads
            // and the store stay in bounds.
            unsafe {
                let (v, w) = (_mm256_loadu_ps(x.as_ptr()), _mm256_loadu_ps(y.as_ptr()));
                let r = match op {
                    Arith::Add => _mm256_add_ps(v, w),
                    Arith::Sub => _mm256_sub_ps(v, w),
                    Arith::Mul => _mm256_mul_ps(v, w),
                    Arith::Div => _mm256_div_ps(v, w),
                    Arith::Sqrt => _mm256_sqrt_ps(v),
                };
                _mm256_storeu_ps(x.as_mut_ptr(), r);
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
/// same path. Callers inside [`Isa::enter`] mark `tile` `#[inline(always)]`;
/// the width-1 runs are plain `for` loops because LLVM left `for_each`'s
/// `Iterator::fold` out of line (and so outside the caller's AVX body).
#[inline(always)]
pub fn col_tiles(
    total: usize,
    lo: usize,
    hi: usize,
    widths: &[usize],
    mut tile: impl FnMut(usize, usize),
) {
    for at in 0..lo {
        tile(at, 1);
    }
    let mut at = lo;
    for &width in widths {
        while at + width <= hi {
            tile(at, width);
            at += width;
        }
    }
    for at in at..total {
        tile(at, 1);
    }
}

/// The `f32` lane count of one vector register in the widest instruction
/// set the engine runs on this host, read at run time: 8 where the CPU has
/// AVX, 4 with SSE2 alone, 1 elsewhere (the lane loops are then scalar).
///
/// The lane-blocked kernels run everywhere — on narrower hosts the 8-lane
/// bundles simply lower to more instructions — but performance gates (the
/// `simd_speedup` floor in `bench_exec`) only arm where this is at least 8,
/// i.e. where the wide path maps onto one vector register.
#[must_use]
pub fn detected_simd_width() -> usize {
    if Avx::detect().is_some() {
        8
    } else if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
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
        let v: F32x8 = Sse2.load(&data[2..]);
        assert_eq!(v.to_array(), [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let mut out = [0.0f32; 10];
        v.store(&mut out[1..]);
        assert_eq!(&out[1..9], &data[2..10]);
        assert_eq!(Sse2.splat::<4>(1.5).to_array(), [1.5; 4]);
    }

    #[test]
    fn gather_covers_splat_contiguous_and_strided() {
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        assert_eq!(Sse2.gather::<4>(&data, 5, 0).to_array(), [5.0; 4]);
        assert_eq!(
            Sse2.gather::<4>(&data, 3, 1).to_array(),
            [3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(
            Sse2.gather::<4>(&data, 1, 7).to_array(),
            [1.0, 8.0, 15.0, 22.0]
        );
    }

    #[test]
    fn arithmetic_is_lane_wise_and_bit_identical_to_scalar() {
        let a: Vec<f32> = (0..8).map(|i| 0.1f32 * i as f32 - 0.3).collect();
        let b: Vec<f32> = (0..8).map(|i| 1.0 - 0.07f32 * i as f32).collect();
        let va: F32x8 = Sse2.load(&a);
        let vb: F32x8 = Sse2.load(&b);
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
        let x: F32x4 = Sse2.load(&[1e-8, 2.5, -3.75, 0.1]);
        let w: F32x4 = Sse2.splat(3.000_000_2);
        let acc: F32x4 = Sse2.splat(1.0);
        let vec = (acc + x * w).to_array();
        for (l, &xv) in [1e-8f32, 2.5, -3.75, 0.1].iter().enumerate() {
            let scalar = 1.0f32 + xv * 3.000_000_2;
            assert_eq!(vec[l].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn max_and_div_match_the_scalar_operations_per_lane() {
        let a: F32x4 = Sse2.load(&[1.0, -2.0, f32::NEG_INFINITY, 0.3]);
        let b: F32x4 = Sse2.load(&[0.5, -1.5, 7.0, 0.3]);
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
        let n = Sse2.splat::<4>(f32::NAN).max(Sse2.splat(2.0)).to_array();
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
    /// padded with `1.0` to whole 16-lane bundles.
    fn special_pairs() -> (Vec<f32>, Vec<f32>) {
        let (mut a, mut b): (Vec<f32>, Vec<f32>) = SPECIAL
            .iter()
            .flat_map(|&x| SPECIAL.iter().map(move |&y| (x, y)))
            .unzip();
        while a.len() % 16 != 0 {
            a.push(1.0);
            b.push(1.0);
        }
        (std::hint::black_box(a), std::hint::black_box(b))
    }

    /// Every bundle operation at width `N` in the instruction set `isa`
    /// against the scalar operator, bit for bit, over every special-value
    /// pair.
    fn special_values_match_the_scalar_operators<const N: usize, I: Isa>(isa: I) {
        type Op<const N: usize, I> = (
            &'static str,
            fn(F32Lanes<N, I>, F32Lanes<N, I>) -> F32Lanes<N, I>,
            fn(f32, f32) -> f32,
        );
        let ops: [Op<N, I>; 7] = [
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
            let (x, y) = (isa.load::<N>(&a[at..]), isa.load::<N>(&b[at..]));
            assert_eq!(bits(&x.to_array()), bits(&a[at..at + N]), "load");
            assert_eq!(
                bits(&isa.gather::<N>(&b, at, 1).to_array()),
                bits(&b[at..at + N]),
                "gather"
            );
            let mut stored = vec![0.0f32; N];
            y.store(&mut stored);
            assert_eq!(bits(&stored), bits(&b[at..at + N]), "store");
            for (name, vector, scalar) in &ops {
                let got = isa.enter(|| vector(x, y)).to_array();
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
                        "{name}({xv:e}, {yv:e}) at width {N} on {isa:?}: {:#x} vs {want:#x}",
                        got[l].to_bits()
                    );
                }
            }
        }
        for v in SPECIAL {
            let splat = isa.splat::<N>(v).to_array();
            assert!(splat.iter().all(|s| s.to_bits() == v.to_bits()), "splat");
        }
    }

    #[test]
    fn special_values_are_bit_identical_to_scalar_at_every_width() {
        special_values_match_the_scalar_operators::<8, _>(Sse2);
        special_values_match_the_scalar_operators::<4, _>(Sse2);
        special_values_match_the_scalar_operators::<1, _>(Sse2);
        // The 256-bit lowering (and its 4-lane and scalar forms), where the
        // host has AVX.
        if let Some(avx) = Avx::detect() {
            special_values_match_the_scalar_operators::<16, _>(avx);
            special_values_match_the_scalar_operators::<8, _>(avx);
            special_values_match_the_scalar_operators::<4, _>(avx);
            special_values_match_the_scalar_operators::<1, _>(avx);
        }
    }

    #[test]
    fn detected_width_is_the_width_of_the_isa_the_engine_runs() {
        let w = detected_simd_width();
        assert_eq!(w == 8, Avx::detect().is_some());
        assert!([1, 4, 8].contains(&w), "{w}");
    }
}

//! Compiled scalar kernels: element-wise operators with their attributes
//! resolved ahead of time.
//!
//! The reference element-wise kernels look attributes up through [`Attrs`] on
//! every call, which is fine for a per-operator interpreter but far too slow
//! inside the fused-block engine's single-pass loop. A [`ScalarUnaryFn`] is
//! the compiled form: the operator's parameters (`alpha`, `beta`,
//! `min`/`max`, …) are extracted once and baked into a small copyable value
//! whose [`ScalarUnaryFn::apply`] is a plain match on pre-resolved floats.
//!
//! This module is the single source of truth for unary scalar semantics:
//! [`OpKind::scalar_unary`] delegates here, so the reference interpreter and
//! the fused engine cannot drift apart.

use crate::{Attrs, OpKind};

/// A unary element-wise operator with attributes resolved at compile time.
///
/// # Example
///
/// ```
/// use dnnf_ops::{Attrs, OpKind, ScalarUnaryFn};
///
/// let attrs = Attrs::new().with_float("alpha", 0.1);
/// let f = ScalarUnaryFn::compile(OpKind::LeakyRelu, &attrs).unwrap();
/// assert!((f.apply(-2.0) + 0.2).abs() < 1e-6);
/// assert_eq!(f.apply(3.0), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarUnaryFn {
    op: OpKind,
    /// First resolved parameter (`alpha` / `min`), 0 when unused.
    p0: f32,
    /// Second resolved parameter (`beta` / `max`), 0 when unused.
    p1: f32,
}

impl ScalarUnaryFn {
    /// Compiles a unary element-wise operator, resolving its attributes.
    /// Returns `None` for operators that are not unary element-wise.
    #[must_use]
    pub fn compile(op: OpKind, attrs: &Attrs) -> Option<ScalarUnaryFn> {
        if !op.is_elementwise_unary() {
            return None;
        }
        let (p0, p1) = match op {
            OpKind::LeakyRelu => (attrs.float_or("alpha", 0.01), 0.0),
            OpKind::HardSigmoid => (attrs.float_or("alpha", 0.2), attrs.float_or("beta", 0.5)),
            OpKind::Clip => (
                attrs.float_or("min", f32::NEG_INFINITY),
                attrs.float_or("max", f32::INFINITY),
            ),
            _ => (0.0, 0.0),
        };
        Some(ScalarUnaryFn { op, p0, p1 })
    }

    /// The operator this kernel implements.
    #[must_use]
    pub fn op(&self) -> OpKind {
        self.op
    }

    /// Applies the compiled kernel to one element.
    ///
    /// The per-operator arms are exactly the reference semantics;
    /// [`OpKind::scalar_unary`] is implemented in terms of this method.
    #[inline]
    #[must_use]
    pub fn apply(&self, x: f32) -> f32 {
        use OpKind::*;
        match self.op {
            Neg => -x,
            Abs => x.abs(),
            Sqrt => x.sqrt(),
            Square => x * x,
            Reciprocal => 1.0 / x,
            Exp => x.exp(),
            Log => x.ln(),
            Erf => erf_approx(x),
            Sin => x.sin(),
            Cos => x.cos(),
            Asin => x.asin(),
            Relu => x.max(0.0),
            LeakyRelu => {
                if x < 0.0 {
                    self.p0 * x
                } else {
                    x
                }
            }
            Sigmoid => 1.0 / (1.0 + (-x).exp()),
            HardSigmoid => (self.p0 * x + self.p1).clamp(0.0, 1.0),
            HardSwish => x * ((x + 3.0).clamp(0.0, 6.0) / 6.0),
            Silu => x / (1.0 + (-x).exp()),
            Mish => x * (1.0 + x.exp()).ln().tanh(),
            Gelu => 0.5 * x * (1.0 + erf_approx(x / std::f32::consts::SQRT_2)),
            Tanh => x.tanh(),
            Softplus => (1.0 + x.exp()).ln(),
            Clip => x.clamp(self.p0, self.p1),
            Ceil => x.ceil(),
            Floor => x.floor(),
            Round => x.round(),
            Cast | Identity => x,
            Not => {
                if x == 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            // `compile` only constructs unary element-wise operators.
            _ => unreachable!("ScalarUnaryFn holds a non-unary operator"),
        }
    }
}

/// Abramowitz–Stegun 7.1.26 approximation of `erf`, accurate to ~1.5e-7,
/// matching what a mobile kernel library would use.
pub(crate) fn erf_approx(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_non_unary_operators() {
        assert!(ScalarUnaryFn::compile(OpKind::Add, &Attrs::new()).is_none());
        assert!(ScalarUnaryFn::compile(OpKind::Conv, &Attrs::new()).is_none());
        assert!(ScalarUnaryFn::compile(OpKind::Relu, &Attrs::new()).is_some());
    }

    #[test]
    fn compiled_kernels_match_the_reference_interpreter_for_every_unary_op() {
        // The differential anchor: `apply` and `scalar_unary` must agree
        // bit-for-bit on every unary operator and a spread of inputs,
        // including attribute-carrying operators with non-default attributes.
        let attr_sets = [
            Attrs::new(),
            Attrs::new()
                .with_float("alpha", 0.3)
                .with_float("beta", 0.1),
            Attrs::new().with_float("min", -0.5).with_float("max", 0.75),
        ];
        let samples = [-10.0f32, -1.5, -0.25, 0.0, 0.25, 0.5, 1.5, 10.0];
        for &op in OpKind::all() {
            if !op.is_elementwise_unary() {
                continue;
            }
            for attrs in &attr_sets {
                let f = ScalarUnaryFn::compile(op, attrs).unwrap();
                assert_eq!(f.op(), op);
                for &x in &samples {
                    let compiled = f.apply(x);
                    let reference = op.scalar_unary(x, attrs).unwrap();
                    assert!(
                        compiled == reference || (compiled.is_nan() && reference.is_nan()),
                        "{op}({x}) compiled={compiled} reference={reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn attributes_are_baked_in_at_compile_time() {
        let clip = ScalarUnaryFn::compile(
            OpKind::Clip,
            &Attrs::new().with_float("min", 0.0).with_float("max", 6.0),
        )
        .unwrap();
        assert_eq!(clip.apply(8.0), 6.0);
        assert_eq!(clip.apply(-1.0), 0.0);
        let hs = ScalarUnaryFn::compile(
            OpKind::HardSigmoid,
            &Attrs::new()
                .with_float("alpha", 1.0)
                .with_float("beta", 0.0),
        )
        .unwrap();
        assert_eq!(hs.apply(0.5), 0.5);
    }
}

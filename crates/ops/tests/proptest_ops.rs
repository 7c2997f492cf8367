//! Property-based tests for operator kernels and shape inference.

use dnnf_ops::{
    execute, execute_fast_into_packed, infer_shapes, pack_conv_oc_panel, Attrs, OpKind, WorkPool,
};
use dnnf_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

/// Asserts the fast kernel reproduces the reference kernel bit for bit with
/// SIMD on, SIMD off and three threads with the work gate open — and, for a
/// convolution the OC panel fits, through the panel as well.
fn assert_fast_is_reference(op: OpKind, attrs: &Attrs, inputs: &[&Tensor]) {
    let bits = |data: &[f32]| data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let reference = execute(op, attrs, inputs).unwrap().remove(0);
    let expected = bits(reference.data());
    let panel = (op == OpKind::Conv && attrs.int_or("group", 1) == 1)
        .then(|| pack_conv_oc_panel(inputs[1]))
        .flatten();
    let serial = WorkPool::serial();
    let pools = [
        serial,
        serial.with_simd(false),
        WorkPool::with_min_work(3, 0),
    ];
    let mut runs: Vec<(Option<&Tensor>, WorkPool)> = pools.iter().map(|&p| (None, p)).collect();
    if let Some(panel) = &panel {
        runs.extend(pools.iter().map(|&p| (Some(panel), p)));
    }
    for (packed, pool) in runs {
        let mut out = vec![0.0f32; reference.numel()];
        assert!(execute_fast_into_packed(
            op,
            attrs,
            inputs,
            packed,
            reference.shape(),
            &mut out,
            pool
        )
        .unwrap());
        assert_eq!(
            bits(&out),
            expected,
            "{op} {attrs:?} on {} diverged (panel: {}, {pool:?})",
            inputs[0].shape(),
            packed.is_some()
        );
    }
}

proptest! {
    #[test]
    fn windowed_fast_kernels_match_reference_at_random_geometry(
        rank in 1usize..4,
        outer in prop::collection::vec(1usize..6, 2..3),
        width in 1usize..21,
        kernel in prop::collection::vec(1i64..4, 3..4),
        strides in prop::collection::vec(1i64..3, 3..4),
        dilations in prop::collection::vec(1i64..3, 3..4),
        pads in prop::collection::vec(0i64..3, 6..7),
        oc_index in 0usize..3,
        cin in 1usize..4,
        depthwise in any::<bool>(),
        with_bias in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        // Spatial extents: `rank - 1` small outer axes and an innermost axis
        // from narrower than the kernel span (no interior column) to wide
        // enough for 8-lane bundles. A window larger than its padded input
        // yields an empty output, which must be handled too.
        let mut spatial = outer[..rank - 1].to_vec();
        spatial.push(width);
        let oc = [3usize, 8, 16][oc_index];
        // group is 1 or C_in; the depthwise C_in divides OC.
        let (cin, group) = if depthwise {
            let cin = [3usize, 4, 4][oc_index];
            (cin, cin)
        } else {
            (cin, 1)
        };
        let pads: Vec<i64> = pads[..rank].iter().chain(&pads[3..3 + rank]).copied().collect();
        let window = Attrs::new()
            .with_ints("strides", strides[..rank].to_vec())
            .with_ints("dilations", dilations[..rank].to_vec())
            .with_ints("pads", pads);

        let x = Tensor::random(Shape::new([vec![2, cin], spatial].concat()), seed);
        let k_dims: Vec<usize> = kernel[..rank].iter().map(|&k| k as usize).collect();
        let w = Tensor::random(Shape::new([vec![oc, cin / group], k_dims].concat()), seed + 1);
        let b = Tensor::random(Shape::new(vec![oc]), seed + 2);
        let conv = window.clone().with_int("group", group as i64);
        let inputs: &[&Tensor] = if with_bias { &[&x, &w, &b] } else { &[&x, &w] };
        assert_fast_is_reference(OpKind::Conv, &conv, inputs);

        let pool = window.with_ints("kernel_shape", kernel[..rank].to_vec());
        assert_fast_is_reference(OpKind::MaxPool, &pool, &[&x]);
        assert_fast_is_reference(OpKind::AveragePool, &pool, &[&x]);
        let include = pool.with_int("count_include_pad", 1);
        assert_fast_is_reference(OpKind::AveragePool, &include, &[&x]);
    }

    #[test]
    fn reorganize_and_reduce_fast_kernels_match_reference_at_random_geometry(
        outer in prop::collection::vec(1usize..5, 0..4),
        width in 1usize..20,
        keys in prop::collection::vec(0u64..1_000_000, 8..9),
        concat_widths in prop::collection::vec(1usize..4, 1..4),
        bounds in prop::collection::vec(-7i64..10, 8..9),
        ids in prop::collection::vec(0u64..1_000, 1..6),
        halves in prop::collection::vec(1u32..8, 4..5),
        reduce_mask in 0usize..16,
        seed in 0u64..10_000,
    ) {
        // Rank 1–4: small outer axes and an innermost axis from 1 to wider
        // than two 8-lane bundles. `keys` drives every discrete choice.
        let dims = [outer, vec![width]].concat();
        let rank = dims.len();
        let x = Tensor::random(Shape::new(dims.clone()), seed);
        // An axis attribute written negative on odd keys.
        let signed = |axis: usize, key: u64| axis as i64 - if key % 2 == 1 { rank as i64 } else { 0 };

        let mut perm: Vec<usize> = (0..rank).collect();
        perm.sort_by_key(|&d| keys[d]);
        let perm: Vec<i64> = perm.iter().map(|&p| p as i64).collect();
        assert_fast_is_reference(OpKind::Transpose, &Attrs::new().with_ints("perm", perm), &[&x]);
        assert_fast_is_reference(OpKind::Transpose, &Attrs::new(), &[&x]);

        let cat_axis = keys[4] as usize % rank;
        let parts: Vec<Tensor> = concat_widths.iter().enumerate().map(|(i, &w)| {
            let mut d = dims.clone();
            d[cat_axis] = w;
            Tensor::random(Shape::new(d), seed + 1 + i as u64)
        }).collect();
        let cat = Attrs::new().with_int("axis", signed(cat_axis, keys[5]));
        assert_fast_is_reference(OpKind::Concat, &cat, &parts.iter().collect::<Vec<_>>());

        // Negative and past-the-end starts and ends on every axis.
        let axes: Vec<i64> = (0..rank).map(|d| signed(d, keys[d])).collect();
        let slice = Attrs::new()
            .with_ints("starts", bounds[..rank].to_vec())
            .with_ints("ends", bounds[4..4 + rank].to_vec())
            .with_ints("axes", axes);
        assert_fast_is_reference(OpKind::Slice, &slice, &[&x]);

        // In-range indices, negative ones included, on axis 0 and on a
        // non-zero axis when there is one.
        for axis in [0, rank - 1] {
            let extent = dims[axis] as i64;
            let picked: Vec<f32> = ids.iter().map(|&k| ((k as i64) % (2 * extent) - extent) as f32).collect();
            let index = Tensor::from_vec(Shape::new(vec![picked.len()]), picked).unwrap();
            let gather = Attrs::new().with_int("axis", signed(axis, keys[6]));
            assert_fast_is_reference(OpKind::Gather, &gather, &[&x, &index]);
        }

        // Scales from 0.5 to 3.5 in halves: integer and fractional.
        let scales: Vec<f32> = halves[..rank].iter().map(|&h| h as f32 / 2.0).collect();
        let up = Attrs::new().with_floats("scales", scales);
        assert_fast_is_reference(OpKind::Upsample, &up, &[&x]);
        assert_fast_is_reference(OpKind::Resize, &up, &[&x]);

        // Every reduction over a random axis set (none listed = all axes).
        let axes: Vec<i64> = (0..rank).filter(|d| reduce_mask >> d & 1 == 1).map(|d| signed(d, keys[7] >> d)).collect();
        for keepdims in [0, 1] {
            let mut attrs = Attrs::new().with_int("keepdims", keepdims);
            if !axes.is_empty() {
                attrs = attrs.with_ints("axes", axes.clone());
            }
            for op in [OpKind::ReduceSum, OpKind::ReduceMean, OpKind::ReduceProd, OpKind::ReduceMax, OpKind::ReduceMin] {
                assert_fast_is_reference(op, &attrs, &[&x]);
            }
        }

        let at = keys[0] as usize % (rank + 1);
        assert_fast_is_reference(OpKind::Reshape, &Attrs::new().with_ints("shape", vec![-1]), &[&x]);
        assert_fast_is_reference(OpKind::Flatten, &Attrs::new().with_int("axis", at as i64), &[&x]);
        assert_fast_is_reference(OpKind::Unsqueeze, &Attrs::new().with_ints("axes", vec![at as i64]), &[&x]);
        assert_fast_is_reference(OpKind::Squeeze, &Attrs::new(), &[&x]);
    }

    #[test]
    fn kernel_outputs_match_inferred_shapes_for_unary(dims in small_dims(), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims), seed);
        for op in [OpKind::Relu, OpKind::Sigmoid, OpKind::Exp, OpKind::Abs, OpKind::Square] {
            let inferred = infer_shapes(op, &Attrs::new(), &[x.shape().clone()]).unwrap();
            let out = execute(op, &Attrs::new(), &[&x]).unwrap();
            prop_assert_eq!(out[0].shape(), &inferred[0]);
        }
    }

    #[test]
    fn add_and_mul_are_commutative(dims in small_dims(), seed in 0u64..500) {
        let shape = Shape::new(dims);
        let a = Tensor::random(shape.clone(), seed);
        let b = Tensor::random(shape, seed.wrapping_add(7));
        for op in [OpKind::Add, OpKind::Mul, OpKind::Min, OpKind::Max] {
            let ab = execute(op, &Attrs::new(), &[&a, &b]).unwrap();
            let ba = execute(op, &Attrs::new(), &[&b, &a]).unwrap();
            prop_assert!(ab[0].allclose(&ba[0], 1e-6));
        }
    }

    #[test]
    fn mul_distributes_over_add(dims in small_dims(), seed in 0u64..500) {
        // The identity behind the paper's Distributive rewrite rules:
        // A⊙C + B⊙C == (A + B)⊙C.
        let shape = Shape::new(dims);
        let a = Tensor::random(shape.clone(), seed);
        let b = Tensor::random(shape.clone(), seed.wrapping_add(1));
        let c = Tensor::random(shape, seed.wrapping_add(2));
        let ac = execute(OpKind::Mul, &Attrs::new(), &[&a, &c]).unwrap();
        let bc = execute(OpKind::Mul, &Attrs::new(), &[&b, &c]).unwrap();
        let lhs = execute(OpKind::Add, &Attrs::new(), &[&ac[0], &bc[0]]).unwrap();
        let ab = execute(OpKind::Add, &Attrs::new(), &[&a, &b]).unwrap();
        let rhs = execute(OpKind::Mul, &Attrs::new(), &[&ab[0], &c]).unwrap();
        prop_assert!(lhs[0].allclose(&rhs[0], 1e-4));
    }

    #[test]
    fn reduce_sum_equals_manual_sum(dims in small_dims(), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims), seed);
        let out = execute(OpKind::ReduceSum, &Attrs::new().with_int("keepdims", 0), &[&x]).unwrap();
        let expected: f32 = x.iter().sum();
        prop_assert!((out[0].data()[0] - expected).abs() < 1e-3);
    }

    #[test]
    fn softmax_outputs_are_a_distribution(rows in 1usize..5, cols in 1usize..8, seed in 0u64..500) {
        let x = Tensor::random(Shape::new(vec![rows, cols]), seed);
        let out = execute(OpKind::Softmax, &Attrs::new(), &[&x]).unwrap();
        for r in 0..rows {
            let sum: f32 = (0..cols).map(|c| out[0].at(&[r, c]).unwrap()).sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for c in 0..cols {
                prop_assert!(out[0].at(&[r, c]).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn transpose_roundtrips_through_kernel(dims in prop::collection::vec(1usize..5, 2..4), seed in 0u64..500) {
        let x = Tensor::random(Shape::new(dims.clone()), seed);
        let perm: Vec<i64> = (0..dims.len() as i64).rev().collect();
        let attrs = Attrs::new().with_ints("perm", perm.clone());
        let once = execute(OpKind::Transpose, &attrs, &[&x]).unwrap();
        let twice = execute(OpKind::Transpose, &attrs, &[&once[0]]).unwrap();
        prop_assert_eq!(&twice[0], &x);
    }

    #[test]
    fn maxpool_never_exceeds_input_max(h in 2usize..7, w in 2usize..7, seed in 0u64..500) {
        let x = Tensor::random(Shape::new(vec![1, 2, h, w]), seed);
        let attrs = Attrs::new().with_ints("kernel_shape", vec![2, 2]).with_ints("strides", vec![1, 1]);
        let out = execute(OpKind::MaxPool, &attrs, &[&x]).unwrap();
        let input_max = x.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for &v in out[0].iter() {
            prop_assert!(v <= input_max + 1e-6);
        }
    }

    #[test]
    fn gemm_is_linear_in_first_argument(m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..200) {
        let a1 = Tensor::random(Shape::new(vec![m, k]), seed);
        let a2 = Tensor::random(Shape::new(vec![m, k]), seed.wrapping_add(3));
        let b = Tensor::random(Shape::new(vec![k, n]), seed.wrapping_add(5));
        let sum_a = execute(OpKind::Add, &Attrs::new(), &[&a1, &a2]).unwrap();
        let lhs = execute(OpKind::Gemm, &Attrs::new(), &[&sum_a[0], &b]).unwrap();
        let p1 = execute(OpKind::Gemm, &Attrs::new(), &[&a1, &b]).unwrap();
        let p2 = execute(OpKind::Gemm, &Attrs::new(), &[&a2, &b]).unwrap();
        let rhs = execute(OpKind::Add, &Attrs::new(), &[&p1[0], &p2[0]]).unwrap();
        prop_assert!(lhs[0].allclose(&rhs[0], 1e-3));
    }
}

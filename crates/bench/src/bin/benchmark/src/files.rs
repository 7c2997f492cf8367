//! What set-up hands to the measured process: raw little-endian files in a
//! directory, and the seeded generator their contents are drawn from.
//!
//! Names are fixed by convention so no manifest is needed: `<model>.dnnfg`,
//! `<model>.in<i>.f32`, `<model>.out<i>.f32` (graph input/output order),
//! `plans.cache`, `profile.tsv`; `serve_mix` stores one row per file as
//! `<tenant>.row<j>.in<i>.f32` / `.out<i>.f32`; `decode_stream` stores
//! `prompt.u32` and `expected.u32`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use dnnf_graph::{Graph, ValueId};
use dnnf_ops::OpKind;
use dnnf_tensor::{Shape, Tensor};

/// SplitMix64: the benchmark's own generator, so inputs depend on the seed
/// alone and not on the vendored `rand` stand-in.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for one named purpose under a seed, so that streams do
    /// not overlap (FNV-1a of the label, mixed into the state).
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

pub fn write_f32(path: &Path, data: &[f32]) -> Result<(), String> {
    let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
    std::fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_f32(path: &Path) -> Result<Vec<f32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if bytes.len() % 4 != 0 {
        return Err(format!("{}: length is not a multiple of 4", path.display()));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Tokens travel as the same four little-endian bytes per value.
pub fn write_u32(path: &Path, data: &[u32]) -> Result<(), String> {
    write_f32(
        path,
        &data.iter().map(|&x| f32::from_bits(x)).collect::<Vec<_>>(),
    )
}

pub fn read_u32(path: &Path) -> Result<Vec<u32>, String> {
    Ok(read_f32(path)?.into_iter().map(f32::to_bits).collect())
}

/// Reads a tensor of a known shape.
pub fn read_tensor(path: &Path, shape: &Shape) -> Result<Tensor, String> {
    Tensor::from_vec(shape.clone(), read_f32(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

/// Vocabulary size behind a token-id input: rows of the table the `Gather`
/// that consumes it indexes. `None` for an ordinary float input.
fn token_vocab(graph: &Graph, input: ValueId) -> Option<usize> {
    graph
        .nodes()
        .find(|n| n.op == OpKind::Gather && n.inputs.get(1) == Some(&input))
        .map(|n| graph.value(n.inputs[0]).shape.dim(0))
}

/// Seeded values for one graph input at `shape`: token ids below the
/// vocabulary for an input that feeds an embedding lookup, otherwise
/// uniform floats in `[-1, 1)`.
pub fn seeded_input(graph: &Graph, input: ValueId, shape: Shape, rng: &mut Rng) -> Tensor {
    let n = shape.numel();
    let data: Vec<f32> = match token_vocab(graph, input) {
        Some(vocab) => (0..n).map(|_| rng.below(vocab as u64) as f32).collect(),
        None => (0..n).map(|_| (rng.unit() * 2.0 - 1.0) as f32).collect(),
    };
    Tensor::from_vec(shape, data).expect("data sized from the shape")
}

/// Seeded inputs for every input of `graph`, at the graph's own shapes.
pub fn seeded_inputs(graph: &Graph, rng: &mut Rng) -> HashMap<String, Tensor> {
    graph
        .inputs()
        .iter()
        .map(|&id| {
            let value = graph.value(id);
            let tensor = seeded_input(graph, id, value.shape.clone(), rng);
            (value.name.clone(), tensor)
        })
        .collect()
}

/// Path of `<stem>.in<i>.f32` / `<stem>.out<i>.f32`.
pub fn io_path(dir: &Path, stem: &str, kind: &str, index: usize) -> PathBuf {
    dir.join(format!("{stem}.{kind}{index}.f32"))
}

/// Writes `tensors` (graph input order) as `<stem>.in<i>.f32`.
pub fn write_inputs(
    dir: &Path,
    stem: &str,
    graph: &Graph,
    inputs: &HashMap<String, Tensor>,
) -> Result<(), String> {
    for (i, &id) in graph.inputs().iter().enumerate() {
        let tensor = &inputs[&graph.value(id).name];
        write_f32(&io_path(dir, stem, "in", i), tensor.data())?;
    }
    Ok(())
}

/// Reads `<stem>.in<i>.f32` back at the shapes `shape_of` gives per input.
pub fn read_inputs(
    dir: &Path,
    stem: &str,
    graph: &Graph,
    shape_of: impl Fn(&Shape) -> Shape,
) -> Result<HashMap<String, Tensor>, String> {
    graph
        .inputs()
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let value = graph.value(id);
            let tensor = read_tensor(&io_path(dir, stem, "in", i), &shape_of(&value.shape))?;
            Ok((value.name.clone(), tensor))
        })
        .collect()
}

/// Writes output tensors (graph output order) as `<stem>.out<i>.f32`.
pub fn write_outputs(dir: &Path, stem: &str, outputs: &[Tensor]) -> Result<(), String> {
    for (i, tensor) in outputs.iter().enumerate() {
        write_f32(&io_path(dir, stem, "out", i), tensor.data())?;
    }
    Ok(())
}

/// Reads `<stem>.out<i>.f32` back as flat data, one vector per output.
pub fn read_outputs(dir: &Path, stem: &str, graph: &Graph) -> Result<Vec<Vec<f32>>, String> {
    (0..graph.outputs().len())
        .map(|i| read_f32(&io_path(dir, stem, "out", i)))
        .collect()
}

/// Where the benchmark keeps its files: `benchmark-work/` beside the
/// executable, which is inside the build's target directory and therefore
/// inside the checkout and ignored by git.
pub fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a directory")
        .join("benchmark-work")
}

/// Directory of set-up repetition `rep` under a run's work directory.
pub fn setup_dir(work: &Path, rep: usize) -> PathBuf {
    work.join(format!("setup{rep}"))
}

/// The set-up directories present under `work`, in repetition order.
pub fn setup_dirs(work: &Path) -> Vec<PathBuf> {
    (0..)
        .map(|rep| setup_dir(work, rep))
        .take_while(|dir| dir.is_dir())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_seed_and_label() {
        let draw = |seed, label| {
            let mut rng = Rng::derive(seed, label);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "inputs"), draw(7, "inputs"));
        assert_ne!(draw(7, "inputs"), draw(8, "inputs"));
        assert_ne!(draw(7, "inputs"), draw(7, "schedule"));
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.unit())));
    }

    #[test]
    fn raw_files_round_trip_bit_exactly() {
        let dir = work_root().join(format!("test-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let floats = [0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, -3.25e-7];
        write_f32(&dir.join("a.f32"), &floats).unwrap();
        let back = read_f32(&dir.join("a.f32")).unwrap();
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            floats.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        write_u32(&dir.join("t.u32"), &[0, 255, u32::MAX]).unwrap();
        assert_eq!(
            read_u32(&dir.join("t.u32")).unwrap(),
            vec![0, 255, u32::MAX]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

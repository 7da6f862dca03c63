//! Fixture: hot-path-alloc cases.

// lint:hot
pub fn hot_allocates() -> Vec<u32> {
    let mut v = Vec::new();
    let w = vec![0.0f64; 4];
    let s = [1u8, 2].to_vec();
    v.push(w.len() as u32 + s.len() as u32);
    v
}

pub fn cold_allocates() -> Vec<u32> {
    let v = Vec::new();
    v
}

// lint:hot
pub fn hot_clean(buf: &mut [f64]) {
    buf[0] = 1.0;
    // Vec::new() mentioned in a comment, vec![] in a string: no findings.
    let _ = "Vec::new() vec![]";
}

// lint:hot
pub fn hot_suppressed() {
    // lint:allow(hot-path-alloc): fixture demonstrates a justified one-off allocation
    let _v: Vec<u8> = Vec::new();
}

// lint:hot
pub fn hot_kernel_chunk<const DIM: usize>(q: &[f64], block: &[f64]) -> f64 {
    // Const-generic kernel bodies are marker-scoped like any other fn.
    let leaked = block[..DIM].to_vec();
    q[0] + leaked[0]
}

// lint:hot
pub fn hot_collects(xs: &[u32]) -> usize {
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect();
    let turbofish = xs.iter().copied().collect::<Vec<u32>>();
    doubled.len() + turbofish.len()
}

// lint:hot
pub fn hot_gather_clean(gathered: &mut Vec<u64>, key: u64) -> u64 {
    // Batch-amortised gather path: pre-sized scratch is not a finding.
    let mut out = Vec::with_capacity(1);
    out.push(key);
    gathered.push(key);
    out[0]
}

// lint:hot
pub fn hot_boxes_cells(spec: &GridSpec, rows: &[f64], out: &mut Vec<i64>) -> usize {
    // A flat lattice row is not a finding; a boxed coordinate is.
    spec.lattice_into(&rows[..2], out);
    spec.cell_of(&rows[..2]).dim()
}

// lint:hot
pub fn hot_boxes_lattice_points(p: &[i64]) -> usize {
    // A boxed coordinate per lattice point is a finding.
    CellCoord::new(p.iter().copied()).dim()
}

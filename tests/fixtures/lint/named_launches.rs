// Lint fixture: anonymous launch and unnamed GpuBuffer in kernel code.
// Linted under the virtual path crates/bc/src/gpu/fixture.rs by
// tests/lint.rs.
use dynbc_gpusim::{Gpu, GpuBuffer};

pub fn run(gpu: &mut Gpu) {
    let buf: GpuBuffer<u32> = gpu.alloc(4, 0);
    gpu.launch(1, |_, _| {});
    drop(buf);
}

//! The `perfbench` binary; see the library documentation.

#[global_allocator]
static GLOBAL: eavs_perfbench::probe::CountingAlloc = eavs_perfbench::probe::CountingAlloc;

fn main() {
    eavs_perfbench::main();
}

#[global_allocator]
static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    ecnbench::traced_main()
}

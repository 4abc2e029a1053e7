fn main() -> std::process::ExitCode {
    ecnbench::main()
}

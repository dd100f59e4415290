//! The four `examples/*.rs` are built by `cargo build --examples` but run
//! by nothing else: call each one's `main`, which asserts its own results.

#[path = "../../examples/checkpoint_restart.rs"]
mod checkpoint_restart;
#[path = "../../examples/quickstart.rs"]
mod quickstart;
#[path = "../../examples/rebuild_exclusion.rs"]
mod rebuild_exclusion;
#[path = "../../examples/weather_fields.rs"]
mod weather_fields;

#[test]
fn every_example_runs_to_completion() {
    quickstart::main();
    checkpoint_restart::main();
    rebuild_exclusion::main();
    weather_fields::main();
}

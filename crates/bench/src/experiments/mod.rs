//! One module per experiment in the DESIGN.md index.

pub mod common;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;

/// All experiment ids in order. Ids keep their numbers: there is no
/// `e9` (it measured a broadcast substrate the stack never used).
pub const ALL: [&str; 11] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12",
];

/// Runs one experiment by id, returning its markdown section, or `None`
/// for an id not in [`ALL`].
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1::run(),
        "e2" => e2::run(),
        "e3" => e3::run(),
        "e4" => e4::run(),
        "e5" => e5::run(),
        "e6" => e6::run(),
        "e7" => e7::run(),
        "e8" => e8::run(),
        "e10" => e10::run(),
        "e11" => e11::run(),
        "e12" => e12::run(),
        _ => return None,
    })
}

//! Every wire type's `encoded_len_hint` is exact: it equals the length of
//! the encoding for every value in the pin table.

// The hostile inputs and decode verdicts are the byte pins' to read.
#[allow(dead_code)]
mod wire_table;

#[test]
fn length_hints_equal_encoded_lengths() {
    let wrong: Vec<String> = wire_table::pins()
        .iter()
        .filter(|p| p.hint != p.bytes.len())
        .map(|p| format!("{}: hint {} for {} bytes", p.name, p.hint, p.bytes.len()))
        .collect();
    assert!(
        wrong.is_empty(),
        "inexact length hints:\n{}",
        wrong.join("\n")
    );
}

// Clean: a gauntlet of lexer edge cases. Every cross-unit cast below is
// in a position the compiler never sees as code.

fn torture<'a>(x: &'a str) -> &'a str {
    let _c: char = 'H'; // char literal, not a lifetime
    let _q: char = '\''; // escaped quote char
    let _bs: char = '\\';
    let _byte = b'u'; // byte char
    let _n = 0xFA17u64 + 1_000; // numeric suffixes are not identifiers
    let _s1 = "(bytes as f64 * 1e9 / bw) as u64 in a string";
    let _s2 = r#"bytes as f64 / (elapsed_ns as f64) and "rate" in a raw string"#;
    let _s3 = br##"size as u64 * ns behind a double-# fence: "# still inside"##;
    let _s4 = c"bandwidth as u64 * nanos in a C string";
    // (bytes as f64 / bw) as u64 in a line comment
    /* let ns = (bytes as f64 * 1e9 / bw) as u64; in a block comment
       /* nested: let rate = bytes as f64 / latency_ns as f64; */
       still inside the outer comment: size as u64 * ns */
    let multi = "a string
        spanning lines with bytes as f64 / bw inside";
    let _ = multi;
    x
}

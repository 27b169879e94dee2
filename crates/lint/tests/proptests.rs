//! Property tests for the lexer and the item parser / call-graph pass.
//!
//! Two families: the lexer must be total (never panic, preserve line
//! structure) over arbitrary input, and a generated call chain rendered
//! to source must round-trip through the parser into exactly the
//! expected function table and transitive-violation set.

use proptest::prelude::*;

/// Character palette biased toward the lexer's tricky state machine:
/// comment markers, string/char/raw-string delimiters, escapes, and
/// enough identifier material to form tokens across them.
const PALETTE: &[char] = &[
    '/', '*', '"', '\'', '\\', 'r', '#', '!', 'a', 'Z', '_', '0', '9', '(', ')', '{', '}', '<',
    '>', ':', '.', ',', ';', ' ', '\n', 'é', '∂',
];

proptest! {
    /// The lexer is total: any palette string lexes without panicking
    /// and yields one `LexedLine` per physical line. `scan_source` is
    /// exercised on the same input so directive parsing, the item
    /// parser, and the token pass are total too (violations may or may
    /// not fire — the property is only that nothing crashes or loses
    /// lines).
    #[test]
    fn lexer_is_total_and_preserves_line_count(
        picks in prop::collection::vec(0usize..27, 0..200),
        tail in (0usize..2).prop_map(|b| b == 1),
    ) {
        let mut src: String = picks.iter().map(|&i| PALETTE[i]).collect();
        if tail {
            src.push_str("\nfn f() {}\n");
        }
        // An unterminated string/comment swallows later newlines into
        // its own mode but never drops the physical line boundary.
        let expected_lines = src.chars().filter(|c| *c == '\n').count() + 1;
        let _ = lint::scan_source("crates/sim/src/gen.rs", &src);
        prop_assert_eq!(lint::lexed_line_count(&src), expected_lines);
    }

    /// Round-trip: render a linear call chain `f0 -> f1 -> ... -> fK`
    /// where only the last function allocates, as free fns or as
    /// methods on a struct. The parser must recover every function
    /// (the report's hot-function table is the observable), the direct
    /// `alloc` violation lands on the allocator, and every other link
    /// in the chain is flagged transitively.
    #[test]
    fn generated_call_chain_round_trips(
        len in 2usize..7,
        methods in (0usize..2).prop_map(|b| b == 1),
    ) {
        let mut src = String::from("// lint: deny_alloc\n");
        if methods {
            src.push_str("pub struct Chain;\n\nimpl Chain {\n");
            for i in 0..len {
                src.push_str(&format!("    /// Link {i}.\n    pub fn f{i}(&self, n: usize) -> usize {{\n"));
                if i + 1 < len {
                    src.push_str(&format!("        self.f{}(n)\n    }}\n", i + 1));
                } else {
                    src.push_str("        let v = vec![0u8; n];\n        v.len()\n    }\n");
                }
            }
            src.push_str("}\n");
        } else {
            for i in 0..len {
                src.push_str(&format!("/// Link {i}.\npub fn f{i}(n: usize) -> usize {{\n"));
                if i + 1 < len {
                    src.push_str(&format!("    f{}(n)\n}}\n", i + 1));
                } else {
                    src.push_str("    let v = vec![0u8; n];\n    v.len()\n}\n");
                }
            }
        }

        let analysis = lint::analyze_sources(&[(
            "crates/core/src/chain.rs".to_string(),
            src,
        )]);

        // Parser recovery: one hot-function row per generated fn, with
        // the expected qualified names.
        prop_assert_eq!(analysis.report.functions.len(), len);
        for (i, entry) in analysis.report.functions.iter().enumerate() {
            let expected = if methods { format!("Chain::f{i}") } else { format!("f{i}") };
            prop_assert_eq!(&entry.function, &expected);
            // Every link reaches the allocator transitively.
            prop_assert!(entry.transitive_alloc, "f{} lost the taint", i);
            prop_assert_eq!(entry.direct_alloc, i + 1 == len);
        }

        let direct = analysis.violations.iter().filter(|v| v.rule == "alloc").count();
        let transitive = analysis
            .violations
            .iter()
            .filter(|v| v.rule == "transitive_alloc")
            .count();
        prop_assert_eq!(direct, 1);
        prop_assert_eq!(transitive, len - 1);
    }
}

//! A deterministic random-program generator for differential testing.
//!
//! Every generated program is type-correct, terminates (loops have small
//! constant bounds), and prints a checksum — so any divergence between the
//! Go pipeline, the GoFree pipeline, and the poisoned-tcfree run (§6.8)
//! exposes a miscompilation or an unsound free. The generator leans into
//! what stresses the escape analysis: slices flowing through calls and
//! reslices, maps growing and dying at different scopes, pointers with
//! indirect stores, struct values carrying slices, and factory helpers.

/// A tiny deterministic RNG (splitmix64) so generated programs depend only
/// on the seed.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo).max(1)
    }
}

/// Generates a self-checking program from `seed`.
///
/// ```
/// let program = gofree_workloads::fuzzgen::generate(7);
/// assert!(program.contains("func main()"));
/// assert!(gofree::compile(&program, &gofree::CompileOptions::default()).is_ok());
/// ```
pub fn generate(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let mut out = String::new();
    let nhelpers = g.range(1, 4) as usize;

    // Helper functions: factories and consumers over slices.
    for h in 0..nhelpers {
        match g.range(0, 3) {
            0 => {
                // Slice factory.
                let fill = g.range(2, 6);
                out.push_str(&format!(
                    "func h{h}(n int) []int {{\n    s := make([]int, n+{})\n    for i := 0; i < len(s); i += 1 {{\n        s[i] = i * {fill}\n    }}\n    return s\n}}\n\n",
                    g.range(1, 8),
                ));
            }
            1 => {
                // Map factory.
                out.push_str(&format!(
                    "func h{h}(n int) map[int]int {{\n    m := make(map[int]int)\n    for i := 0; i < n%17+3; i += 1 {{\n        m[i*{}] = i + n\n    }}\n    return m\n}}\n\n",
                    g.range(1, 5),
                ));
            }
            _ => {
                // Consumer that sums a window of its input.
                out.push_str(&format!(
                    "func h{h}(s []int) int {{\n    t := 0\n    w := s[{}:len(s)]\n    for i := 0; i < len(w); i += 1 {{\n        t += w[i]\n    }}\n    return t\n}}\n\n",
                    g.range(0, 2),
                ));
            }
        }
    }

    out.push_str("func main() {\n    sum := 0\n");
    let nstmts = g.range(4, 12);
    let mut slices: Vec<String> = Vec::new();
    let mut maps: Vec<String> = Vec::new();
    let mut v = 0usize;
    for _ in 0..nstmts {
        v += 1;
        match g.range(0, 8) {
            0 => {
                // Local slice with writes.
                let n = g.range(3, 60);
                out.push_str(&format!(
                    "    s{v} := make([]int, {n})\n    for i := 0; i < len(s{v}); i += 1 {{\n        s{v}[i] = i * {}\n    }}\n    sum += s{v}[{}]\n",
                    g.range(1, 9),
                    g.range(0, 3),
                ));
                slices.push(format!("s{v}"));
            }
            1 => {
                // Local map with growth.
                let n = g.range(4, 40);
                out.push_str(&format!(
                    "    m{v} := make(map[int]int)\n    for i := 0; i < {n}; i += 1 {{\n        m{v}[i%{}] += i\n    }}\n    sum += m{v}[0] + len(m{v})\n",
                    g.range(3, 25),
                ));
                maps.push(format!("m{v}"));
            }
            2 => {
                // Call a helper if one matches; h0 always exists.
                let h = g.range(0, nhelpers as u64);
                // Figure out its shape from how we generated it: probe by
                // regenerating the choice sequence is fragile, so call h0
                // defensively only when the source contains its signature.
                let sig_slice = format!("func h{h}(n int) []int");
                let sig_map = format!("func h{h}(n int) map[int]int");
                let sig_sum = format!("func h{h}(s []int) int");
                if out.contains(&sig_slice) {
                    out.push_str(&format!(
                        "    f{v} := h{h}({})\n    sum += f{v}[0] + len(f{v})\n",
                        g.range(2, 30)
                    ));
                    slices.push(format!("f{v}"));
                } else if out.contains(&sig_map) {
                    out.push_str(&format!(
                        "    g{v} := h{h}({})\n    sum += g{v}[1] + len(g{v})\n",
                        g.range(2, 30)
                    ));
                    maps.push(format!("g{v}"));
                } else if out.contains(&sig_sum) {
                    if let Some(s) = slices.last() {
                        out.push_str(&format!("    sum += h{h}({s})\n"));
                    }
                }
            }
            3 => {
                // Reslice an existing slice.
                if let Some(s) = slices.last().cloned() {
                    out.push_str(&format!(
                        "    w{v} := {s}[0 : len({s})/2+1]\n    sum += w{v}[0] + len(w{v})\n"
                    ));
                    slices.push(format!("w{v}"));
                }
            }
            4 => {
                // Pointer shuffle with an indirect store.
                out.push_str(&format!(
                    "    a{v} := {}\n    b{v} := a{v} * 2\n    p{v} := &a{v}\n    q{v} := &b{v}\n    pp{v} := &p{v}\n    *pp{v} = q{v}\n    r{v} := *pp{v}\n    *r{v} = a{v} + 7\n    sum += a{v} + b{v}\n",
                    g.range(1, 50),
                ));
            }
            5 => {
                // Append chain (sometimes from nil).
                let from_nil = g.next().is_multiple_of(2);
                if from_nil {
                    out.push_str(&format!("    var t{v} []int\n"));
                } else {
                    out.push_str(&format!("    t{v} := make([]int, 1, {})\n", g.range(2, 10)));
                }
                out.push_str(&format!(
                    "    for i := 0; i < {}; i += 1 {{\n        t{v} = append(t{v}, i*i)\n    }}\n    sum += t{v}[len(t{v})-1] + cap(t{v})%7\n",
                    g.range(2, 25),
                ));
                slices.push(format!("t{v}"));
            }
            6 => {
                // Inner scope with its own dying slice or map.
                let n = g.range(4, 40);
                out.push_str(&format!(
                    "    {{\n        inner{v} := make([]int, {n})\n        inner{v}[0] = sum % 97\n        sum += inner{v}[0]\n    }}\n"
                ));
            }
            _ => {
                // Switch on accumulated state.
                out.push_str(&format!(
                    "    switch sum % {} {{\ncase 0:\n    sum += 11\ncase 1, 2:\n    sum += 13\ndefault:\n    sum += 17\n}}\n",
                    g.range(3, 6),
                ));
            }
        }
        // Occasionally delete from a live map.
        if g.next().is_multiple_of(5) {
            if let Some(m) = maps.last() {
                out.push_str(&format!("    delete({m}, {})\n", g.range(0, 10)));
            }
        }
    }
    out.push_str("    print(sum)\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofree::{compile, execute, CompileOptions, PoisonMode, RunConfig, Setting};

    #[test]
    fn generated_programs_compile_and_run() {
        for seed in 0..20 {
            let src = generate(seed);
            let compiled = compile(&src, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {}\n{src}", e.render(&src)));
            let r = execute(&compiled, Setting::GoFree, &RunConfig::deterministic(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(!r.output.is_empty());
        }
    }

    #[test]
    fn differential_go_vs_gofree_vs_poison() {
        for seed in 0..40 {
            let src = generate(seed);
            let cfg = RunConfig::deterministic(seed);
            let go = compile(&src, &CompileOptions::go()).expect("go compiles");
            let gofree = compile(&src, &CompileOptions::default()).expect("gofree compiles");
            let go_out = execute(&go, Setting::Go, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed} go: {e}\n{src}"))
                .output;
            let gf_out = execute(&gofree, Setting::GoFree, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed} gofree: {e}\n{src}"))
                .output;
            assert_eq!(go_out, gf_out, "seed {seed} diverged:\n{src}");
            let poisoned = execute(
                &gofree,
                Setting::GoFree,
                &RunConfig {
                    poison: PoisonMode::Zero,
                    ..cfg.clone()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed} poisoned: {e}\n{src}"));
            assert_eq!(go_out, poisoned.output, "seed {seed} unsound free:\n{src}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_varied() {
        assert_eq!(generate(7), generate(7));
        let distinct: std::collections::HashSet<String> = (0..10).map(generate).collect();
        assert!(distinct.len() >= 8, "seeds should vary the programs");
    }
}

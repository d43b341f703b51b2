"""Compiler explorer: MiniC -> assembly at -O0 and -O1, side by side.

Shows the lowering pipeline for a snippet: the generated assembly (at
-O0 and -O1) and a repetition profile of the running code — a compact
tour of `repro.lang`, `repro.asm`, and `repro.core`.

Run:  python examples/compiler_explorer.py
"""

from repro.asm import assemble
from repro.core import RepetitionTracker
from repro.lang import compile_to_assembly
from repro.sim import Simulator

SOURCE = """
int factor = 4;

int scale(int x) {
    return x * factor * 2;
}

int main() {
    int i;
    int total = 0;
    for (i = 0; i < 10; i += 1) {
        total += scale(i) + 3 * 7 - 21;
    }
    print_int(total);
    putchar('\\n');
    return 0;
}
"""


def show_assembly(title: str, text: str) -> None:
    print(f"--- {title} " + "-" * (60 - len(title)))
    for line in text.splitlines():
        print(f"    {line}")
    print()


def main() -> None:
    plain = compile_to_assembly(SOURCE)
    optimized = compile_to_assembly(SOURCE, optimize=True)

    show_assembly("assembly (-O0)", plain)
    show_assembly("assembly (-O1: folding, strength reduction, peephole)", optimized)

    program = assemble(optimized)
    tracker = RepetitionTracker()
    result = Simulator(program, analyzers=[tracker]).run()
    report = tracker.report()
    print("--- execution " + "-" * 46)
    print(f"    output              : {result.output.strip()}")
    print(f"    dynamic instructions: {report.dynamic_total:,}")
    print(f"    repeated            : {report.dynamic_repeated_pct:.1f}%")
    print(f"    static sites reused : {report.static_repeated}/{report.static_executed}")


if __name__ == "__main__":
    main()

"""A seeded boundary fuzz of the command line.

A few hundred argument vectors go through cli.main: construct for every
family of the CLI table, with integers from -3..13 (half of them from the
boundary values -1..2) and random step sets, neighbour lists and words;
probe-zsigma; and verify under --max-vertices 60 --time-budget 2. Malformed
and small random edge-list files (at most 10 vertices) go through kappa,
sem, ham and lcf. Every call must return an exit code in {0, 1, 2, 3} and
raise nothing. The seed is fixed, so a failure names a vector that
reproduces it.
"""

import random

from hamcompress import cli

SEED = 31
INTS = range(-3, 14)
BOUNDARY = (-1, 0, 1, 2)
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_INPUT, cli.EXIT_BUDGET}

# flags of construct that take an integer; each flag is passed as --flag=value,
# so that a value such as -3,1 is not read as an option
INT_FLAGS = ("m", "n", "r", "q", "p", "t")


def _int(rng) -> int:
    return rng.choice(BOUNDARY if rng.random() < 0.5 else INTS)


def _int_set(rng) -> str:
    return ",".join(str(_int(rng)) for _ in range(rng.randrange(4)))


def _words(rng) -> str:
    return ",".join("".join(rng.choice("aAbBc") for _ in range(rng.randrange(4)))
                    for _ in range(rng.randrange(1, 5)))


def _neighbors(rng) -> str:
    pairs = [f"{_int(rng)}:{_int(rng)}" for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.2:
        pairs.append(rng.choice(["", "1", "1:x", "1:2:3"]))
    return ",".join(pairs)


TEXT_FLAGS = {
    "connection": lambda rng, family: _words(rng) if family == "cayleyp3" else _int_set(rng),
    "outer": lambda rng, family: _int_set(rng),
    "inner": lambda rng, family: _int_set(rng),
    "spokes": lambda rng, family: _int_set(rng),
    "neighbors": lambda rng, family: _neighbors(rng),
}


def _construct(rng, family):
    required = cli.FAMILIES[family][0]
    argv = ["construct", "--family", family]
    for flag in INT_FLAGS:
        if flag in required or rng.random() < 0.3:
            argv.append(f"--{flag}={_int(rng)}")
    for flag, text in TEXT_FLAGS.items():
        if (flag in required and rng.random() < 0.95) or rng.random() < 0.1:
            argv.append(f"--{flag}={text(rng, family)}")
    if family == "cayleyp3":
        argv += ["--variant", rng.choice(["heisenberg", "modular"])]
    return argv


def _probe(rng):
    return ["probe-zsigma", *(f"--{flag}={_int(rng)}" for flag in ("q", "p", "t"))]


def _verify(rng):
    argv = ["verify", "--claim", rng.choice(sorted(cli.verify_mod.CLAIMS)),
            "--max-vertices", "60", "--time-budget", "2"]
    for flag in ("k", "p-max", "q", "p", "t"):
        if rng.random() < 0.3:
            argv.append(f"--{flag}={_int(rng)}")
    return argv


def _edgelist(rng) -> str:
    """A small random graph, valid or with one corruption: a bad or
    mismatched header, a junk token, a loop, an id out of range, a duplicate
    edge, a blank line or no final newline."""
    n = rng.randrange(11)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    corruption = rng.randrange(9)
    if corruption == 0:
        lines[0] = rng.choice(["", "x", f"{n}", f"{n} {len(edges)} 1", f"-1 {len(edges)}",
                               f"{n} -2", f"{n} {len(edges) + 1}"])
    elif corruption == 1:
        lines.append(rng.choice(["a b", "1", "1 2 3", "0x1 2", "1.5 2"]))
    elif corruption == 2 and n:
        u = rng.randrange(n)
        lines.append(f"{u} {u}")
    elif corruption == 3:
        lines.append(f"{rng.choice([-1, n, n + 1])} 0")
    elif corruption == 4 and edges:
        lines.append(lines[1])
    elif corruption == 5:
        lines.insert(rng.randrange(1, len(lines) + 1), "")
    elif corruption == 6:
        return "\n".join(lines)
    if corruption in (1, 2, 3, 4) and rng.random() < 0.5:
        lines[0] = f"{n} {len(lines) - 1}"  # the header agrees with the lines
    return "\n".join(lines) + "\n"


def _graph_command(rng, path):
    command = rng.choice(["kappa", "sem", "ham", "lcf"])
    argv = [command, str(path)]
    if command == "kappa" and rng.random() < 0.5:
        argv += ["--mode", rng.choice(["lift", "exhaustive"])]
    if command in ("kappa", "ham") and rng.random() < 0.3:
        argv.append(f"--limit={_int(rng)}")
    return argv


def test_cli_boundary_fuzz(tmp_path, capsys):
    rng = random.Random(SEED)
    vectors = [_construct(rng, family) for family in cli.FAMILIES for _ in range(24)]
    vectors += [_probe(rng) for _ in range(60)]
    vectors += [_verify(rng) for _ in range(40)]
    for i in range(120):
        path = tmp_path / f"g{i}.txt"
        path.write_text(_edgelist(rng))
        vectors.append(_graph_command(rng, path))
    failures = []
    for argv in vectors:
        try:
            code = cli.main([*argv, "--quiet"])
        except (Exception, SystemExit) as exc:  # argparse accepts every vector
            failures.append((argv, repr(exc)))
        else:
            if code not in EXIT_CODES:
                failures.append((argv, code))
        capsys.readouterr()
    assert not failures, failures[:5]

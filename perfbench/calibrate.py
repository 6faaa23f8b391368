"""A fixed pure-Python computation whose run time tracks the machine's speed.

The runner starts it as a fresh process after every workload process, so
that each workload time can be divided by a reference time taken moments
later on the same machine.  It shares no code with satpow, so a change to
satpow cannot move it.  Its work is of the same kind as satpow's: tuples of
small exponents built, hashed, sorted and filtered for divisibility.
"""
def antichain(vectors):
    kept = []
    for t in sorted(set(vectors), key=lambda t: (sum(t), t)):
        if not any(all(x <= y for x, y in zip(k, t)) for k in kept):
            kept.append(t)
    return kept


def main() -> None:
    # (I^n : m^inf) for n = 1..5 and I the edge ideal of a 5-cycle, by the
    # same method as satpow but with code of its own.
    d = 5
    ideal = [tuple(1 if j in (i, (i + 1) % d) else 0 for j in range(d)) for i in range(d)]
    power = ideal
    for _ in range(4):
        power = antichain(tuple(x + y for x, y in zip(a, b)) for a in power for b in ideal)
        columns = [antichain(tuple(0 if j == i else e for j, e in enumerate(g)) for g in power) for i in range(d)]
        saturation = columns[0]
        for column in columns[1:]:
            saturation = antichain(tuple(max(x, y) for x, y in zip(a, b)) for a in saturation for b in column)
    if len(power) != 126 or len(saturation) != 90:
        raise SystemExit("calibration computed a wrong result")


if __name__ == "__main__":
    main()

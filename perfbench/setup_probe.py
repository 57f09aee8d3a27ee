"""Set-up time in a fresh process: `import treksep` plus parsing graph texts.

Usage: python3 setup_probe.py SRC_DIR TEXTS_FILE
TEXTS_FILE holds the graph texts separated by NUL characters.  Prints the
CPU seconds the set-up took, then the median CPU seconds of the reference
loop, sampled between the parses.  Nothing but `sys` and `time` is imported
before `import treksep` is timed, so the import starts as cold as a user's.
"""

import sys
from time import process_time


def main() -> None:
    src, texts_path = sys.argv[1], sys.argv[2]
    with open(texts_path) as f:
        texts = [t for t in f.read().split("\0") if t]
    sys.path.insert(0, src)
    start = process_time()
    import treksep
    elapsed = process_time() - start

    import statistics

    import reference
    samples = []
    for text in texts:
        reference.sample(samples)
        start = process_time()
        treksep.parse_graph(text)
        elapsed += process_time() - start
    reference.sample(samples, repeats=21)
    print(elapsed, statistics.median(samples))


if __name__ == "__main__":
    main()

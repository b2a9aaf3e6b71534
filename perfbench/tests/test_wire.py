"""Runs the C++ tests of perfbench_load's response framing (wire_test.cpp).

    python3 -m unittest discover -s perfbench/tests

Builds the perfbench_wire_test target into the benchmark's build directory
first (in a fresh checkout that builds the pcss library: a few minutes).
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import run  # noqa: E402


class WireFraming(unittest.TestCase):
    def test_cpp_framing_and_verdicts(self):
        cwd = os.getcwd()
        os.chdir(run.ROOT)
        try:
            run.build(["perfbench_wire_test"])
            result = subprocess.run([run.binary("perfbench_wire_test")], capture_output=True,
                                    text=True, timeout=60)
        finally:
            os.chdir(cwd)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()

"""The process entry of ``python -m qcalc`` and of the installed ``qcalc`` script.

A run is one short process, and the objects numpy and qcalc leave alive
are freed when it exits.  So the cyclic garbage collector is switched off
before the command line is imported, and every object alive when ``main``
returns is frozen, which the interpreter's collections at shutdown skip.
The process still exits normally, flushing and closing its files (which
``os._exit`` would not).  ``cli.main`` itself leaves the collector alone,
since it is also called in-process.
"""
import gc


def run() -> int:
    gc.disable()
    from .cli import main

    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(run())

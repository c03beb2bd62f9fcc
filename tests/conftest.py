import importlib.util
import os
import shlex
import shutil
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import qcloak as qc

# every run draws the same examples, so a pass or failure is reproducible;
# per-test settings keep their own max_examples and deadlines
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def free_medium():
    return qc.LayeredMedium((qc.Shell(0.0, 3.0, 1.0, 1.0),))


@pytest.fixture(scope="session")
def cloak_builder():
    """build(R, n_layers, c_inn) -> AcousticSystem with the doubled core."""
    def build(R=1.005, n_layers=50, c_inn=0.0):
        cs, ca = qc.DOUBLED_CORE
        layers = qc.homogenize(qc.truncate(R, cs, ca), n_layers)
        core = qc.CorePotential.step(c_inn, 0.9) if c_inn else None
        return qc.AcousticSystem(layers, core)
    return build


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """qcloak._kernel built from the package's `_kernel.c` in a temporary
    directory, whatever backend `qcloak.propagate` selected.

    Skips only where no C compiler is installed; a source that fails to
    compile is an error.
    """
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler ({cc})")
    from distutils.core import run_setup   # setuptools' copy

    from setuptools import Distribution

    # the extension as setup.py declares it (flags included), but built
    # from the package's source and required to compile
    (ext,) = run_setup(str(Path(__file__).parent.parent / "setup.py"),
                       stop_after="init").ext_modules
    ext.sources = [str(Path(qc.__file__).with_name("_kernel.c"))]
    ext.optional = False
    name = ext.name
    out = tmp_path_factory.mktemp("kernel_build")
    dist = Distribution({"ext_modules": [ext]})
    build = dist.get_command_obj("build_ext")
    build.build_lib = str(out)
    build.build_temp = str(out / "temp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(
        name, build.get_ext_fullpath(name))
    # loading an extension registers it in sys.modules; keep the entry the
    # package made (or its absence) so the backend choice stays untouched
    previous = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if previous is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = previous
    return module

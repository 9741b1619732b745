import ngbayes
from ngbayes import distributions, divergence, experiments, glm, numerics


def test_package_exports_every_module_all():
    for module in (numerics, distributions, divergence, glm, experiments):
        for name in module.__all__:
            assert name in ngbayes.__all__, f"{module.__name__}.{name}"
            assert getattr(ngbayes, name) is getattr(module, name)

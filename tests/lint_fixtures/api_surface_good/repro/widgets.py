"""Public defs with callers: an attribute access, a from-import and a
bare name in the defining module all count."""


def shown_off():
    return listed()


def listed():
    return 0


def paper_only():  # repro-lint: disable=API001 Algorithm 1, §5.1
    return 0


class Gadget:
    def unused_method(self):
        return 0

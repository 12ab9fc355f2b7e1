"""Firing fixture for RA405: nested functions that call themselves
through a closure cell the enclosing function leaves bound."""


def count_nodes(root):
    def visit(node):  # must-fire: RA405
        if node is None:
            return 0
        return 1 + visit(node.left) + visit(node.right)

    return visit(root)


def count_with_a_finally_elsewhere(root):
    def visit(node):  # must-fire: RA405
        return 0 if node is None else 1 + visit(node.left)

    try:
        return visit(root)
    finally:
        root = None  # rebinds another name: the cycle stays


class Walker:
    def walk(self, root):
        async def visit(node):  # must-fire: RA405
            return None if node is None else await visit(node.next)

        return visit(root)


def two_walks(root):
    def down(node):  # must-fire: RA405
        return [] if node is None else [node] + down(node.left)

    def up(node):  # must-fire: RA405
        return [] if node is None else up(node.parent) + [node]

    return down(root) + up(root)


program iphoist
  input integer :: n = 56, sweeps = 6, lo = 2, gap = 3
  integer :: i, s
  real :: w(1:n), z(1:n), t(1:n)
  real :: total
  do i = 1, n
    w(i) = real(i) * 0.25
    z(i) = 1.0
    t(i) = 0.0
  end do
  t(lo + gap) = 1.0
  z(gap + 1) = 2.0
  call add(n, lo, w, z)
  do s = 1, sweeps
    call relax(n, n, w)
    do i = 1, n
      z(i) = z(i) * 0.99
      call add(n, i, w, z)
    end do
  end do
  total = 0.0
  do i = 1, n
    total = total + z(i)
  end do
  print total
end program

subroutine relax(p, m, x)
  integer :: p, m, k
  real :: x(1:m)
  do k = 1, p
    x(k) = x(k) * 0.9 + 0.1
  end do
end subroutine

subroutine add(m, j, x, y)
  integer :: m, j
  real :: x(1:m), y(1:m)
  y(j) = y(j) + x(j) * 0.05
end subroutine


program ipsmooth
  input integer :: n = 64, sweeps = 4
  integer :: i, s
  real :: a(1:n), b(1:n)
  real :: total
  do i = 1, n
    a(i) = real(i) * 0.5
    b(i) = 0.0
  end do
  do s = 1, sweeps
    do i = 1, n
      a(i) = a(i) * 0.75 + 0.25
      call put(n, i, a, b)
    end do
  end do
  total = 0.0
  do i = 1, n
    total = total + b(i)
  end do
  print total
end program

subroutine put(m, j, x, y)
  integer :: m, j
  real :: x(1:m), y(1:m)
  y(j) = y(j) + x(j) * 0.125
end subroutine
